package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/serve"
	"github.com/ecocloud-go/mondrian/internal/simulate"
)

// testParams shrinks the driver workload so endpoint tests run fast.
func testParams() simulate.Params {
	p := simulate.TestParams()
	p.STuples = 1 << 10
	p.RTuples = 1 << 9
	p.KeySpace = 1 << 16
	p.CPUBuckets = 1 << 8
	return p
}

func TestHandlerEndpoints(t *testing.T) {
	sched := serve.New(serve.Config{Workers: 2, Obs: obs.NewRegistry()})
	defer sched.Close()

	// Serve a small mix so every endpoint has data.
	var tickets []*serve.Ticket
	for i := 0; i < 6; i++ {
		tk, err := sched.Submit("tenant-"+strconv.Itoa(i%2), serve.Request{
			System:   simulate.Mondrian,
			Operator: simulate.Operators()[i%len(simulate.Operators())],
			Params:   testParams(),
		})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets {
		if r := tk.Wait(); r.Err != nil {
			t.Fatal(r.Err)
		}
	}

	srv := httptest.NewServer(handler(sched))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, string(b)
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE tenant_runs counter",
		`tenant_queue_wait_p99_ns{tenant="tenant-0"}`,
		`tenant_latency_p50_ns{tenant="tenant-1"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get("/tenants")
	if code != 200 {
		t.Fatalf("/tenants = %d", code)
	}
	var tn struct {
		Tenants []serve.TenantLive `json:"tenants"`
	}
	if err := json.Unmarshal([]byte(body), &tn); err != nil {
		t.Fatalf("/tenants not JSON: %v", err)
	}
	if strings.Contains(body, `"weight"`) {
		t.Fatalf("/tenants still reports a tenant weight:\n%s", body)
	}
	if len(tn.Tenants) != 2 {
		t.Fatalf("/tenants = %d tenants, want 2", len(tn.Tenants))
	}
	for _, tenant := range tn.Tenants {
		if tenant.QueueWaitP50Ns <= 0 || tenant.QueueWaitP99Ns <= 0 ||
			tenant.LatencyP50Ns <= 0 || tenant.LatencyP99Ns <= 0 {
			t.Fatalf("tenant %q has empty live percentiles: %+v", tenant.Tenant, tenant)
		}
	}

	code, body = get("/flightrecorder")
	if code != 200 {
		t.Fatalf("/flightrecorder = %d", code)
	}
	var fr struct {
		FlightRecords []serve.FlightRecord `json:"flight_records"`
	}
	if err := json.Unmarshal([]byte(body), &fr); err != nil {
		t.Fatalf("/flightrecorder not JSON: %v", err)
	}
	if len(fr.FlightRecords) != 6 {
		t.Fatalf("/flightrecorder = %d records, want 6", len(fr.FlightRecords))
	}

	ticket := fr.FlightRecords[len(fr.FlightRecords)-1].Ticket
	code, body = get("/trace/" + strconv.FormatUint(ticket, 10))
	if code != 200 {
		t.Fatalf("/trace/%d = %d", ticket, code)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace not valid trace_event JSON: %v", err)
	}
	if len(doc.TraceEvents) < 2 {
		t.Fatalf("/trace has %d events", len(doc.TraceEvents))
	}

	if code, _ := get("/trace/999999"); code != http.StatusNotFound {
		t.Fatalf("/trace of unknown ticket = %d, want 404", code)
	}
	if code, _ := get("/trace/notanumber"); code != http.StatusBadRequest {
		t.Fatalf("/trace of garbage = %d, want 400", code)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
}
