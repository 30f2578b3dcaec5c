package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for _, tc := range []struct {
		q          float64
		want       float64
		wantBeyond int
	}{
		{0.50, 50, 50},
		{0.99, 99, 1},
		{1.00, 100, 0},
		{0.01, 1, 99},
	} {
		got, beyond := percentile(xs, tc.q)
		if got != tc.want || beyond != tc.wantBeyond {
			t.Errorf("percentile(%v) = %v, %d beyond; want %v, %d", tc.q, got, beyond, tc.want, tc.wantBeyond)
		}
	}
	if v, n := percentile(nil, 0.5); v != 0 || n != 0 {
		t.Errorf("percentile of no samples = %v, %d", v, n)
	}
}

func TestSummarizeReportsP99OnlyWithTenBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: summarize must sort
		}
		return xs
	}
	if s := summarize(mk(1000)); s.N != 1000 || s.P50 != 500 || s.P99 != 990 {
		t.Errorf("1000 samples: %+v, want p50 500, p99 990", s)
	}
	// 1099 samples: rank 1089 leaves 10 above it.
	if s := summarize(mk(1099)); s.P99 == 0 {
		t.Errorf("1099 samples leave 10 beyond p99, got %+v", s)
	}
	// 999 samples leave 9 above the p99: unsupported, reported as 0.
	if s := summarize(mk(999)); s.P99 != 0 || s.P50 == 0 {
		t.Errorf("999 samples: %+v, want p50 only", s)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if m := median(xs); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if xs[0] != 3 {
		t.Errorf("median reordered its input")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

func TestBacklogGrowing(t *testing.T) {
	for _, tc := range []struct {
		mid, end, half, workers int
		want                    bool
	}{
		{3, 5, 700, 2, false},   // a stable queue wanders
		{0, 4, 700, 2, false},   // within one request per worker... and 5%
		{10, 40, 700, 2, false}, // +30 ≤ 35 (5% of 700)
		{10, 50, 700, 2, true},  // +40 > 35
		{60, 120, 700, 2, true}, // overload: doubles between mid and end
		{0, 5, 20, 2, true},     // small step: slack is 2 per worker = 4
		{40, 20, 700, 2, false}, // draining
	} {
		if got := backlogGrowing(tc.mid, tc.end, tc.half, tc.workers); got != tc.want {
			t.Errorf("backlogGrowing(%d, %d, %d, %d) = %v, want %v", tc.mid, tc.end, tc.half, tc.workers, got, tc.want)
		}
	}
}

func TestRateAtSLO(t *testing.T) {
	ok := func(rate, p99 float64) rungResult {
		return rungResult{Rate: rate, Lat: latencySummary{N: 1400, P50: 1, P99: p99}}
	}
	rungs := []rungResult{
		ok(400, 12),
		ok(600, 25), // a noisy miss below capacity does not end the ladder
		ok(800, 15),
		ok(1000, 19),
		{Rate: 1200, Lat: latencySummary{N: 1400, P50: 2, P99: 18}, Growing: true},
		{Rate: 1400, Lat: latencySummary{N: 1400, P50: 2, P99: 10}, Failed: 1},
		{Rate: 1600, Lat: latencySummary{N: 900, P50: 2}}, // p99 unsupported
	}
	if got := rateAtSLO(rungs, 20); got != 1000 {
		t.Errorf("rateAtSLO = %v, want 1000", got)
	}
	if got := rateAtSLO(rungs[:2], 10); got != 0 {
		t.Errorf("rateAtSLO with every rung missing = %v, want 0", got)
	}
}
