package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/simulate"
)

// serveParams is a small fast setup shared by the scheduler tests.
func serveParams() simulate.Params {
	p := simulate.TestParams()
	p.STuples = 1 << 12
	p.RTuples = 1 << 11
	p.KeySpace = 1 << 16
	p.CPUBuckets = 1 << 8
	return p
}

func scanReq(s simulate.System) Request {
	return Request{System: s, Operator: simulate.OpScan, Params: serveParams()}
}

func TestAdmissionFootprintReject(t *testing.T) {
	p := serveParams()
	fp := footprintBytes(p)
	if fp <= 0 {
		t.Fatalf("footprint = %d, want positive", fp)
	}
	// Budget admits exactly one queued-or-running request.
	s := New(Config{Workers: 0, FootprintBudgetBytes: fp})
	defer s.Close()

	tk, err := s.Submit("a", scanReq(simulate.Mondrian))
	if err != nil {
		t.Fatal(err)
	}
	if got := reserved(s); got != fp {
		t.Fatalf("reserved footprint = %d, want %d", got, fp)
	}

	_, err = s.Submit("b", scanReq(simulate.Mondrian))
	var adm *ErrAdmission
	if !errors.As(err, &adm) {
		t.Fatalf("over-budget submit returned %v, want *ErrAdmission", err)
	}
	if adm.Tenant != "b" || adm.FootprintBytes != fp || adm.BudgetBytes != fp {
		t.Fatalf("admission error fields: %+v", adm)
	}

	// Completing the queued run releases its reservation; admission
	// reopens without any retry queue in between.
	if !s.dispatchNext() {
		t.Fatal("dispatchNext found no work")
	}
	if r := tk.Wait(); r.Err != nil || !r.Result.Verified {
		t.Fatalf("queued run failed: %+v", r.Err)
	}
	if got := reserved(s); got != 0 {
		t.Fatalf("footprint after completion = %d, want 0", got)
	}
	if _, err := s.Submit("b", scanReq(simulate.Mondrian)); err != nil {
		t.Fatalf("post-release submit refused: %v", err)
	}
}

func TestQueueDepthReject(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Workers: 0, QueueDepth: 2, Obs: reg})
	defer s.Close()
	for i := 0; i < 2; i++ {
		if _, err := s.Submit("a", scanReq(simulate.Mondrian)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := s.Submit("a", scanReq(simulate.Mondrian))
	var adm *ErrAdmission
	if !errors.As(err, &adm) {
		t.Fatalf("over-depth submit returned %v, want *ErrAdmission", err)
	}
	// Another tenant's queue is unaffected by a's bound.
	if _, err := s.Submit("b", scanReq(simulate.Mondrian)); err != nil {
		t.Fatalf("tenant b refused by a's queue bound: %v", err)
	}
	rejects := reg.Snapshot().Counters[obs.Label("tenant_admission_rejects", "tenant", "a")]
	if rejects != 1 {
		t.Fatalf("admission rejects counter = %d, want 1", rejects)
	}
}

// reserved returns the vault-capacity footprint s holds for queued and
// running requests.
func reserved(s *Scheduler) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.footprint
}

// popOrder drains the scheduler via the fairness policy alone (no
// simulation) and returns the dispatched tenants in order.
func popOrder(s *Scheduler, n int) []string {
	var order []string
	s.mu.Lock()
	for i := 0; i < n && s.queued > 0; i++ {
		it := s.popLocked()
		s.footprint -= it.footprint
		order = append(order, it.tenant)
	}
	s.mu.Unlock()
	return order
}

func TestFairRoundRobinOrder(t *testing.T) {
	s := New(Config{Workers: 0})
	defer s.Close()
	for tenant, n := range map[string]int{"a": 4, "b": 2, "c": 3} {
		for i := 0; i < n; i++ {
			if _, err := s.Submit(tenant, scanReq(simulate.Mondrian)); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := popOrder(s, 9)
	// Every dispatch advances its tenant's pass by one and ties break on
	// name, so backlogged tenants take turns in name order and a drained
	// tenant drops out of the rotation.
	want := []string{"a", "b", "c", "a", "b", "c", "a", "c", "a"}
	if len(got) != len(want) {
		t.Fatalf("dispatch order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", got, want)
		}
	}
}

func TestActivationCatchUp(t *testing.T) {
	s := New(Config{Workers: 0})
	defer s.Close()
	// Tenant a works alone for a while, accumulating pass.
	for i := 0; i < 4; i++ {
		if _, err := s.Submit("a", scanReq(simulate.Mondrian)); err != nil {
			t.Fatal(err)
		}
	}
	popOrder(s, 4)
	// b arrives late: it must not get 4 back-to-back dispatches to
	// "repay" a's head start — it joins at the current virtual time.
	for i := 0; i < 2; i++ {
		if _, err := s.Submit("a", scanReq(simulate.Mondrian)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit("b", scanReq(simulate.Mondrian)); err != nil {
			t.Fatal(err)
		}
	}
	got := popOrder(s, 4)
	// b joins at the virtual time of the last dispatch and alternates
	// with a from there — never a back-to-back burst.
	want := []string{"b", "a", "b", "a"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-activation order = %v, want %v", got, want)
		}
	}
}

func TestPriorityWithinTenant(t *testing.T) {
	s := New(Config{Workers: 0})
	defer s.Close()
	var tickets []*Ticket
	for _, prio := range []int{0, 5, 1} {
		req := scanReq(simulate.Mondrian)
		req.Priority = prio
		tk, err := s.Submit("a", req)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	s.mu.Lock()
	var prios []int
	for s.queued > 0 {
		it := s.popLocked()
		s.footprint -= it.footprint
		prios = append(prios, it.req.Priority)
	}
	s.mu.Unlock()
	want := []int{5, 1, 0}
	for i := range want {
		if prios[i] != want[i] {
			t.Fatalf("priority order = %v, want %v", prios, want)
		}
	}
	_ = tickets
}

func TestCloseCancelsQueued(t *testing.T) {
	s := New(Config{Workers: 0})
	tk, err := s.Submit("a", scanReq(simulate.Mondrian))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if r := tk.Wait(); !errors.Is(r.Err, ErrClosed) {
		t.Fatalf("queued ticket after Close: %+v, want ErrClosed", r.Err)
	}
	if _, err := s.Submit("a", scanReq(simulate.Mondrian)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close = %v, want ErrClosed", err)
	}
	if got := reserved(s); got != 0 {
		t.Fatalf("footprint after Close = %d, want 0", got)
	}
}

// TestEndToEndServing exercises the full service under real workers:
// three tenants, mixed operator and plan requests, per-tenant metrics,
// and responses byte-identical to direct simulate calls.
func TestEndToEndServing(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Workers: 4, Obs: reg})
	defer s.Close()

	p := serveParams()
	type sub struct {
		tenant string
		req    Request
	}
	subs := []sub{
		{"alice", Request{System: simulate.Mondrian, Operator: simulate.OpJoin, Params: p}},
		{"alice", Request{System: simulate.CPU, Operator: simulate.OpScan, Params: p}},
		{"bob", Request{System: simulate.NMP, Operator: simulate.OpGroupBy, Params: p}},
		{"bob", Request{System: simulate.Mondrian, Plan: simulate.PlanFilterSort, IsPlan: true, Params: p}},
		{"carol", Request{System: simulate.Mondrian, Operator: simulate.OpSort, Params: p}},
	}
	tickets := make([]*Ticket, len(subs))
	for i, su := range subs {
		tk, err := s.Submit(su.tenant, su.req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		tickets[i] = tk
	}
	for i, tk := range tickets {
		r := tk.Wait()
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if r.QueueNs < 0 {
			t.Fatalf("request %d: negative queue wait", i)
		}
		// A served response must match a direct simulate call byte for
		// byte — the service layer adds scheduling, never simulation.
		if subs[i].req.IsPlan {
			if !r.PlanResult.Verified {
				t.Fatalf("request %d: not verified", i)
			}
			direct, err := simulate.RunPlan(subs[i].req.System, subs[i].req.Plan, subs[i].req.Params)
			if err != nil {
				t.Fatal(err)
			}
			gj, _ := json.Marshal(r.PlanResult)
			wj, _ := json.Marshal(direct)
			if !bytes.Equal(gj, wj) {
				t.Errorf("request %d: served plan result differs from direct run", i)
			}
		} else {
			if !r.Result.Verified {
				t.Fatalf("request %d: not verified", i)
			}
			direct, err := simulate.Run(subs[i].req.System, subs[i].req.Operator, subs[i].req.Params)
			if err != nil {
				t.Fatal(err)
			}
			gj, _ := json.Marshal(r.Result)
			wj, _ := json.Marshal(direct)
			if !bytes.Equal(gj, wj) {
				t.Errorf("request %d: served result differs from direct run", i)
			}
		}
	}

	snap := reg.Snapshot()
	runs := func(tenant string) uint64 {
		return snap.Counters[obs.Label("tenant_runs", "tenant", tenant)]
	}
	if runs("alice") != 2 || runs("bob") != 2 || runs("carol") != 1 {
		t.Fatalf("tenant_runs = alice:%d bob:%d carol:%d", runs("alice"), runs("bob"), runs("carol"))
	}
	for _, tenant := range []string{"alice", "bob", "carol"} {
		if ns := snap.Gauges[obs.Label("tenant_sim_ns", "tenant", tenant)]; ns <= 0 {
			t.Errorf("tenant_sim_ns for %s = %v, want positive", tenant, ns)
		}
		h := snap.Histograms[obs.Label("tenant_queue_wait_ns", "tenant", tenant)]
		if h.Count == 0 {
			t.Errorf("no queue-wait observations for %s", tenant)
		}
	}
	// Join distributes both relations across vaults, so alice's mix must
	// have moved exchange bytes.
	if xb := snap.Counters[obs.Label("tenant_exchange_bytes", "tenant", "alice")]; xb == 0 {
		t.Error("tenant_exchange_bytes for alice = 0, want positive")
	}
}

func TestFootprintBytes(t *testing.T) {
	p := serveParams()
	want := int64(p.Cubes) * int64(p.VaultsPer) * p.VaultCapBytes
	if got := footprintBytes(p); got != want {
		t.Fatalf("footprintBytes = %d, want %d", got, want)
	}
	p.Cubes = 0
	if got := footprintBytes(p); got != 0 {
		t.Fatalf("degenerate footprint = %d, want 0", got)
	}
}

// TestConcurrentIntrospection is the -race proof that the scheduler owns
// its registry: submitters on several goroutines feed four workers while
// readers scrape WritePrometheus, TenantsSnapshot and FlightRecords, and
// the final per-tenant run counters equal the completed tickets.
func TestConcurrentIntrospection(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Workers: 4, Obs: reg})
	tenants := []string{"t0", "t1", "t2"}
	const perTenant = 6

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch r {
				case 0:
					if err := s.WritePrometheus(io.Discard); err != nil {
						t.Errorf("WritePrometheus: %v", err)
						return
					}
				case 1:
					_ = s.TenantsSnapshot()
				case 2:
					_ = s.FlightRecords()
				}
			}
		}(r)
	}

	completed := make([]int, len(tenants))
	var submitters sync.WaitGroup
	for i, tenant := range tenants {
		submitters.Add(1)
		go func(i int, tenant string) {
			defer submitters.Done()
			var tickets []*Ticket
			for j := 0; j < perTenant; j++ {
				tk, err := s.Submit(tenant, scanReq(simulate.Systems()[j%len(simulate.Systems())]))
				if err != nil {
					t.Errorf("submit %s/%d: %v", tenant, j, err)
					return
				}
				tickets = append(tickets, tk)
			}
			for _, tk := range tickets {
				if r := tk.Wait(); r.Err != nil {
					t.Errorf("%s: %v", tenant, r.Err)
					continue
				}
				completed[i]++
			}
		}(i, tenant)
	}
	submitters.Wait()
	close(stop)
	readers.Wait()

	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	s.Close()
	snap := reg.Snapshot()
	for i, tenant := range tenants {
		name := obs.Label("tenant_runs", "tenant", tenant)
		if got := snap.Counters[name]; got != uint64(completed[i]) || completed[i] != perTenant {
			t.Errorf("%s = %d, completed tickets = %d, want %d", name, got, completed[i], perTenant)
		}
		if want := fmt.Sprintf("%s %d\n", name, perTenant); !strings.Contains(buf.String(), want) {
			t.Errorf("final scrape missing %q", want)
		}
	}
}

// TestWritePrometheusRendersUnlocked: the scrape renders after releasing
// the scheduler mutex, so a slow client cannot stall dispatch.
func TestWritePrometheusRendersUnlocked(t *testing.T) {
	s := New(Config{Workers: 0, Obs: obs.NewRegistry()})
	defer s.Close()
	tk, err := s.Submit("a", scanReq(simulate.Mondrian))
	if err != nil {
		t.Fatal(err)
	}
	s.dispatchNext()
	tk.Wait()
	w := &lockProbe{s: s}
	if err := s.WritePrometheus(w); err != nil {
		t.Fatal(err)
	}
	if w.writes == 0 || w.locked > 0 {
		t.Fatalf("%d of %d writes ran under the scheduler mutex", w.locked, w.writes)
	}
	// Without a registry there is nothing to render.
	bare := New(Config{Workers: 0})
	defer bare.Close()
	var buf bytes.Buffer
	if err := bare.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("registry-less scrape: err=%v len=%d", err, buf.Len())
	}
}

// lockProbe is a writer that counts the writes made while its
// scheduler's mutex was held.
type lockProbe struct {
	s              *Scheduler
	writes, locked int
}

func (p *lockProbe) Write(b []byte) (int, error) {
	p.writes++
	if p.s.mu.TryLock() {
		p.s.mu.Unlock()
	} else {
		p.locked++
	}
	return len(b), nil
}
