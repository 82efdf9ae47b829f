package main

import (
	"math"
	"math/rand"
	"testing"

	"specdb"
	"specdb/internal/metrics"
)

func TestSpanHistResolution(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 129, 1000, 123456, 1 << 40} {
		got := spanValue(spanBucket(v))
		if math.Abs(got-float64(v)) > float64(v)/(1<<subBits)+0.5 {
			t.Errorf("value %d lands in a bucket reported as %g", v, got)
		}
	}
}

// The interpolated quantile must stay inside the bucket the library reports
// and move when the samples inside that bucket move.
func TestLatencyQuantileInsideBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var a, b metrics.Histogram
	for i := 0; i < 10000; i++ {
		v := specdb.Time(1000+rng.Intn(2000)) * specdb.Microsecond
		a.Add(v)
		b.Add(v + 30*specdb.Microsecond)
	}
	for _, q := range []float64{0.5, 0.99} {
		hi := float64(a.Quantile(q)) / 1e3
		got := latencyQuantile(&a, q)
		if got > hi || got < hi/histGrowth {
			t.Errorf("q=%g: %g µs outside the reported bucket (%g, %g]", q, got, hi/histGrowth, hi)
		}
		if latencyQuantile(&b, q) == got {
			t.Errorf("q=%g: shifted samples gave the same estimate %g", q, got)
		}
	}
}
