package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/simulate"
)

// fakeClock drives the rolling windows deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestScheduler(cfg Config) (*Scheduler, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	cfg.now = clk.now
	return New(cfg), clk
}

func TestTicketIDsAreUnique(t *testing.T) {
	s, _ := newTestScheduler(Config{Workers: 0})
	defer s.Close()
	seen := map[uint64]bool{}
	for i := 0; i < 5; i++ {
		tk, err := s.Submit("a", scanReq(simulate.Mondrian))
		if err != nil {
			t.Fatal(err)
		}
		if tk.ID() == 0 || seen[tk.ID()] {
			t.Fatalf("ticket ID %d zero or repeated", tk.ID())
		}
		seen[tk.ID()] = true
	}
}

func TestTenantsSnapshotLivePercentiles(t *testing.T) {
	reg := obs.NewRegistry()
	s, _ := newTestScheduler(Config{Workers: 0, Obs: reg})
	defer s.Close()

	var tickets []*Ticket
	for i := 0; i < 4; i++ {
		// Sort moves exchange traffic, so the exchange window fills.
		tk, err := s.Submit("acme", Request{
			System: simulate.Mondrian, Operator: simulate.OpSort, Params: serveParams(),
		})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	tk, err := s.Submit("zeta", scanReq(simulate.NMP))
	if err != nil {
		t.Fatal(err)
	}
	tickets = append(tickets, tk)
	for s.dispatchNext() {
	}
	for _, tk := range tickets {
		if r := tk.Wait(); r.Err != nil {
			t.Fatal(r.Err)
		}
	}

	live := s.TenantsSnapshot()
	if len(live) != 2 || live[0].Tenant != "acme" || live[1].Tenant != "zeta" {
		t.Fatalf("snapshot = %+v, want [acme zeta]", live)
	}
	acme := live[0]
	if acme.Runs != 4 || acme.WindowRuns != 4 {
		t.Fatalf("acme runs = %d/%d, want 4/4", acme.Runs, acme.WindowRuns)
	}
	if acme.QueueWaitP50Ns <= 0 || acme.QueueWaitP99Ns < acme.QueueWaitP50Ns {
		t.Fatalf("queue-wait percentiles not live: p50=%g p99=%g", acme.QueueWaitP50Ns, acme.QueueWaitP99Ns)
	}
	if acme.LatencyP50Ns <= 0 || acme.LatencyP99Ns < acme.LatencyP50Ns {
		t.Fatalf("latency percentiles not live: p50=%g p99=%g", acme.LatencyP50Ns, acme.LatencyP99Ns)
	}
	if acme.ExchangeBytesWindow <= 0 {
		t.Fatalf("exchange window empty with a registry configured")
	}
	if acme.SLOGoodFraction != 1 || acme.SLOBurnRate != 0 {
		t.Fatalf("healthy tenant must have clean SLO: %+v", acme)
	}

	// WritePrometheus lands the same view as gauges for /metrics.
	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`tenant_queue_wait_p99_ns{tenant="acme"}`,
		`tenant_latency_p50_ns{tenant="zeta"}`,
		`tenant_slo_burn_rate{tenant="acme"} 0`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("prometheus output missing %q", want)
		}
	}
}

func TestWindowsAgeOutOnFakeClock(t *testing.T) {
	s, clk := newTestScheduler(Config{Workers: 0, WindowDur: time.Second, WindowSlots: 2})
	defer s.Close()
	tk, err := s.Submit("a", scanReq(simulate.Mondrian))
	if err != nil {
		t.Fatal(err)
	}
	if !s.dispatchNext() {
		t.Fatal("no work")
	}
	tk.Wait()
	if live := s.TenantsSnapshot(); live[0].WindowRuns != 1 {
		t.Fatalf("fresh run must be in the window: %+v", live[0])
	}
	// Cumulative totals survive the window aging out.
	clk.advance(3 * time.Second)
	live := s.TenantsSnapshot()
	if live[0].WindowRuns != 0 {
		t.Fatalf("window must age out after slots×dur: %+v", live[0])
	}
	if live[0].Runs != 1 {
		t.Fatalf("cumulative runs must survive: %+v", live[0])
	}
}

func TestFlightRecorderRingAndOutcomes(t *testing.T) {
	s, _ := newTestScheduler(Config{Workers: 0, FlightRecords: 3, Obs: obs.NewRegistry()})
	defer s.Close()
	for i := 0; i < 5; i++ {
		tk, err := s.Submit("a", scanReq(simulate.Mondrian))
		if err != nil {
			t.Fatal(err)
		}
		if !s.dispatchNext() {
			t.Fatal("no work")
		}
		tk.Wait()
	}
	recs := s.FlightRecords()
	if len(recs) != 3 {
		t.Fatalf("ring must cap at 3, got %d", len(recs))
	}
	// Oldest-first, contiguous ticket IDs, only the newest 3 retained.
	for i, r := range recs {
		if r.Ticket != uint64(3+i) {
			t.Fatalf("record %d ticket = %d, want %d", i, r.Ticket, 3+i)
		}
		if r.Outcome != OutcomeOK || r.Tenant != "a" || r.System != "Mondrian" || r.Operator != "Scan" {
			t.Fatalf("record = %+v", r)
		}
		if r.ParamsDigest == "" || r.QueueNs < 0 || r.SimNs <= 0 {
			t.Fatalf("record incomplete: %+v", r)
		}
	}
}

func TestFlightRecorderRejectAndDump(t *testing.T) {
	p := serveParams()
	var dump bytes.Buffer
	s, _ := newTestScheduler(Config{
		Workers:              0,
		FootprintBudgetBytes: footprintBytes(p), // exactly one request fits
		FlightDump:           &dump,
		Obs:                  obs.NewRegistry(),
	})
	defer s.Close()
	if _, err := s.Submit("a", scanReq(simulate.Mondrian)); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit("b", scanReq(simulate.Mondrian))
	if err == nil {
		t.Fatal("expected admission reject")
	}
	recs := s.FlightRecords()
	if len(recs) != 1 || recs[0].Outcome != OutcomeRejected || recs[0].Tenant != "b" {
		t.Fatalf("reject must be flight-recorded: %+v", recs)
	}
	if recs[0].Error == "" {
		t.Fatalf("reject record must carry the admission error")
	}
	// The first reject dumped the ring, exactly once.
	if dump.Len() == 0 {
		t.Fatal("flight dump must fire on first admission reject")
	}
	var doc struct {
		FlightRecords []FlightRecord `json:"flight_records"`
	}
	if err := json.Unmarshal(dump.Bytes(), &doc); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	before := dump.Len()
	if _, err := s.Submit("c", scanReq(simulate.Mondrian)); err == nil {
		t.Fatal("expected second reject")
	}
	if dump.Len() != before {
		t.Fatal("flight dump must fire at most once")
	}
	// The reject's SLO impact is visible.
	live := s.TenantsSnapshot()
	for _, tn := range live {
		if tn.Tenant == "b" && tn.SLOBurnRate <= 0 {
			t.Fatalf("reject must burn tenant b's error budget: %+v", tn)
		}
	}
}

func TestTraceSpansServedAndResponseStripped(t *testing.T) {
	s, _ := newTestScheduler(Config{Workers: 0, Obs: obs.NewRegistry()})
	defer s.Close()
	tk, err := s.Submit("a", scanReq(simulate.Mondrian))
	if err != nil {
		t.Fatal(err)
	}
	if !s.dispatchNext() {
		t.Fatal("no work")
	}
	resp := tk.Wait()
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	// Response stays byte-identical to a bare run: no phases, no spans.
	if resp.Result.Phases != nil || resp.Result.Spans != nil {
		t.Fatalf("served result must stay stripped")
	}
	spans := s.TraceSpans(tk.ID())
	if spans == nil || spans.Name != "run" || spans.EndNs != resp.Result.TotalNs {
		t.Fatalf("TraceSpans = %+v, want retained run tree ending at %g", spans, resp.Result.TotalNs)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	if len(doc.TraceEvents) < 2 {
		t.Fatalf("trace too small: %d events", len(doc.TraceEvents))
	}
	// Flight record carries the per-phase breakdown.
	recs := s.FlightRecords()
	if len(recs) != 1 || len(recs[0].Phases) == 0 {
		t.Fatalf("flight record must carry phases: %+v", recs)
	}
	if s.TraceSpans(9999) != nil {
		t.Fatal("unknown ticket must have no trace")
	}
}

func TestFlightRecorderDisabled(t *testing.T) {
	s, _ := newTestScheduler(Config{Workers: 0, FlightRecords: -1})
	defer s.Close()
	tk, err := s.Submit("a", scanReq(simulate.Mondrian))
	if err != nil {
		t.Fatal(err)
	}
	s.dispatchNext()
	tk.Wait()
	if recs := s.FlightRecords(); recs != nil {
		t.Fatalf("disabled recorder must keep nothing, got %d", len(recs))
	}
	if s.TraceSpans(tk.ID()) != nil {
		t.Fatal("disabled recorder must serve no traces")
	}
}

func TestParamsDigestStable(t *testing.T) {
	a, b := serveParams(), serveParams()
	if paramsDigest(a) != paramsDigest(b) {
		t.Fatal("equal params must digest equally")
	}
	b.STuples++
	if paramsDigest(a) == paramsDigest(b) {
		t.Fatal("different params must digest differently")
	}
	// The registry handle must not leak into the digest (json:"-").
	c := serveParams()
	c.Obs = obs.NewRegistry()
	if paramsDigest(a) != paramsDigest(c) {
		t.Fatal("Obs handle must not affect the digest")
	}
	// Host knobs change how a run executes, never what it simulates.
	for name, set := range map[string]func(*simulate.Params){
		"Parallelism": func(p *simulate.Params) { p.Parallelism += 3 },
		"NoBulk":      func(p *simulate.Params) { p.NoBulk = !p.NoBulk },
		"NoPool":      func(p *simulate.Params) { p.NoPool = !p.NoPool },
	} {
		d := serveParams()
		set(&d)
		if paramsDigest(a) != paramsDigest(d) {
			t.Errorf("host field %s must not affect the digest", name)
		}
	}
}
