package main

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"specdb/internal/metrics"
)

// median returns the median of xs (the mean of the middle two for an even
// count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spanHist is a log-linear histogram of span durations in nanoseconds: 2^subBits
// sub-buckets per power of two, so a reported value is within 1/2^subBits of
// the true one. It is a fixed array, so recording allocates nothing.
type spanHist struct {
	counts [64 << subBits]uint64
	n      uint64
}

const subBits = 7

func spanBucket(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	exp := bits.Len64(v) - 1 - subBits
	return (exp+1)<<subBits | int(v>>uint(exp)&(1<<subBits-1))
}

// spanValue returns the midpoint of bucket i.
func spanValue(i int) float64 {
	if i < 1<<subBits {
		return float64(i)
	}
	exp := i>>subBits - 1
	lo := uint64(1<<subBits|i&(1<<subBits-1)) << uint(exp)
	return float64(lo) + float64(uint64(1)<<uint(exp))/2
}

func (h *spanHist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[spanBucket(uint64(ns))]++
	h.n++
}

func (h *spanHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := uint64(q * float64(h.n))
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum > target {
			return spanValue(i)
		}
	}
	return spanValue(len(h.counts) - 1)
}

// tailPercentile returns the highest of the standard percentiles that still
// has at least ten samples beyond it, so a tail is never read off a handful of
// samples.
func tailPercentile(n uint64) float64 {
	best := 50.0
	for _, p := range []float64{90, 99, 99.9, 99.99} {
		if float64(n)*(1-p/100) >= 10 {
			best = p
		}
	}
	return best
}

// latencyQuantile estimates the q-quantile of a latency histogram in
// microseconds. The histogram keeps log buckets 1.2× apart and its own
// Quantile answers with a bucket's upper edge, so its percentiles move in
// 20% steps. This recovers the ranks the quantile's bucket spans (by
// querying Quantile rank by rank) and interpolates linearly inside the
// bucket, which keeps the estimate inside the bucket the library reports
// while letting it move with the samples.
func latencyQuantile(h *metrics.Histogram, q float64) float64 {
	n := h.N()
	if n == 0 {
		return 0
	}
	rank := func(t uint64) float64 {
		return float64(h.Quantile((float64(t) + 0.5) / float64(n)))
	}
	r := uint64(q * float64(n))
	if r >= n {
		r = n - 1
	}
	hi := rank(r)
	// First and last rank that fall in the same bucket as r.
	first := uint64(sort.Search(int(r+1), func(t int) bool { return rank(uint64(t)) >= hi }))
	last := r + uint64(sort.Search(int(n-r), func(t int) bool { return rank(r+uint64(t)) > hi })) - 1
	lo := hi / histGrowth
	if first > 0 {
		lo = math.Max(lo, rank(first-1))
	} else {
		lo = math.Max(lo, float64(h.Quantile(0)))
	}
	frac := (float64(r-first) + 0.5) / float64(last-first+1)
	return (lo + (hi-lo)*frac) / 1e3
}

// histGrowth is the bucket growth factor of metrics.Histogram.
const histGrowth = 1.2
