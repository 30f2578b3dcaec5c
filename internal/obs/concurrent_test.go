package obs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentRegistryHammer is the -race proof of the Concurrent()
// contract: writer goroutines hammer Counter/Gauge/Histogram handles —
// both pre-existing and registered mid-flight — while readers snapshot
// and export. Run under `go test -race ./internal/obs/`.
func TestConcurrentRegistryHammer(t *testing.T) {
	r := NewRegistry()
	pre := r.Counter("pre_existing") // handle taken before Concurrent()
	r.Concurrent()

	const writers = 8
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("writer_%d", w)
			for i := 0; i < iters; i++ {
				pre.Inc()
				r.Counter(name + "_c").Add(2)
				r.Gauge(name + "_g").Set(float64(i))
				r.Histogram(name+"_h", []float64{1, 10, 100}).Observe(float64(i % 128))
				r.Histogram("shared_h", []float64{1, 10, 100}).Observe(float64(i % 7))
			}
		}(w)
	}
	// Readers: snapshot and Prometheus-export while writers run.
	for rd := 0; rd < 4; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = r.Snapshot()
				var buf bytes.Buffer
				if err := WritePrometheus(&buf, r); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	snap := r.Snapshot()
	if got := snap.Counters["pre_existing"]; got != writers*iters {
		t.Fatalf("pre_existing = %d, want %d (pre-Concurrent handles must be synchronized too)", got, writers*iters)
	}
	for w := 0; w < writers; w++ {
		if got := snap.Counters[fmt.Sprintf("writer_%d_c", w)]; got != 2*iters {
			t.Fatalf("writer_%d_c = %d, want %d", w, got, 2*iters)
		}
	}
	if got := snap.Histograms["shared_h"].Count; got != writers*iters {
		t.Fatalf("shared_h count = %d, want %d", got, writers*iters)
	}
}

// TestConcurrentIdempotence: Concurrent() is idempotent and nil-safe,
// and stamps the handles registered before the switch.
func TestConcurrentIdempotence(t *testing.T) {
	var nilReg *Registry
	if nilReg.Concurrent() != nil {
		t.Fatalf("nil.Concurrent() must stay nil")
	}
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(5)
	if r.Concurrent() != r || r.Concurrent() != r {
		t.Fatalf("Concurrent must be idempotent")
	}
	// The pre-switch handle must be stamped: hammer it briefly.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Inc()
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 5+400 {
		t.Fatalf("c = %d, want 405", got)
	}
}
