package serve

import (
	"bytes"
	"encoding/json"
	"errors"
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

func TestWeightedFairOrder(t *testing.T) {
	s := New(Config{Workers: 0})
	defer s.Close()
	s.SetTenantWeight("a", 2)
	s.SetTenantWeight("b", 1)
	for i := 0; i < 4; i++ {
		if _, err := s.Submit("a", scanReq(simulate.Mondrian)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Submit("b", scanReq(simulate.Mondrian)); err != nil {
			t.Fatal(err)
		}
	}
	got := popOrder(s, 6)
	// Stride scheduling with weights 2:1 — a advances its pass by 1/2
	// per dispatch, b by 1, ties break on name.
	want := []string{"a", "b", "a", "a", "b", "a"}
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
	s := New(Config{Workers: 4, Obs: reg, HarvestExchange: true})
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
