package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p99 from 200 samples rests on two values and says nothing.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted and
// the number of samples above it.
func percentile(sorted []float64, q float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank], n - rank - 1
}

// latencySummary is the p50 and p99 of one set of latencies with its
// sample count. P99 is 0 when fewer than minBeyond samples lie above it,
// so an unsupported tail is never reported as measured.
type latencySummary struct {
	N        int
	P50, P99 float64
}

func summarize(xs []float64) latencySummary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := latencySummary{N: len(s)}
	out.P50, _ = percentile(s, 0.50)
	if p99, beyond := percentile(s, 0.99); beyond >= minBeyond {
		out.P99 = p99
	}
	return out
}

// backlogGrowing reports whether the queue grew during the second half of
// an open-loop rate step: the requests outstanding when the last one was
// sent, against those outstanding at the midpoint. A stable system's
// backlog wanders by a few requests; an overloaded one grows by the
// excess of arrivals over completions, which is a fixed share of the
// second half's arrivals. The slack is the larger of one request per
// worker and 5% of those arrivals.
func backlogGrowing(mid, end, secondHalf, workers int) bool {
	slack := float64(secondHalf) * 0.05
	if w := float64(2 * workers); w > slack {
		slack = w
	}
	return float64(end-mid) > slack
}

// rungResult is one rate step of the serving ladder.
type rungResult struct {
	Rate    float64
	Lat     latencySummary // ms, from each request's due time
	Failed  int
	Growing bool
}

// meetsSLO reports whether a rung kept its p99 within sloMs, with no
// failed request and no growing backlog. A rung whose p99 is unsupported
// misses: the limit cannot be shown to hold.
func (r rungResult) meetsSLO(sloMs float64) bool {
	return r.Failed == 0 && !r.Growing && r.Lat.P99 > 0 && r.Lat.P99 <= sloMs
}

// rateAtSLO returns the highest rate of the ladder whose rung meets the
// SLO, or 0 when none does.
func rateAtSLO(rungs []rungResult, sloMs float64) float64 {
	best := 0.0
	for _, r := range rungs {
		if r.meetsSLO(sloMs) && r.Rate > best {
			best = r.Rate
		}
	}
	return best
}
