package telemetry

import (
	"strings"
	"testing"
)

// TestHistogramBucketEdgeAgreement verifies the three bucket-edge rules
// agree: Observe places v in the first bucket whose bound is >= v, the
// Prometheus exposition labels cumulative buckets le="bound" (v <= bound),
// and Quantile reports a bucket's upper bound. An observation exactly equal
// to a bound must therefore count in that bound's bucket everywhere.
func TestHistogramBucketEdgeAgreement(t *testing.T) {
	bounds := []int64{10, 20, 50}
	h := NewHistogram(bounds)
	// One observation exactly at each finite bound, one just above the top.
	for _, v := range bounds {
		h.Observe(v)
	}
	h.Observe(51)

	_, cum := h.bucketCounts()
	// Cumulative counts: le=10 -> 1, le=20 -> 2, le=50 -> 3, +Inf -> 4.
	want := []int64{1, 2, 3, 4}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (cum %v)", i, cum[i], w, cum)
		}
	}

	// Quantile agrees: each observation's quantile is its own bound; the
	// overflow observation saturates to the last finite bound.
	for i, v := range bounds {
		q := float64(i+1) / 4
		if got := h.Quantile(q); got != v {
			t.Fatalf("Quantile(%v) = %d, want bound %d", q, got, v)
		}
	}
	if got := h.Quantile(1.0); got != 50 {
		t.Fatalf("Quantile(1.0) = %d, want saturation to top bound 50", got)
	}
}

// TestHistogramObserveBoundaryValues pins Observe's bucket choice for
// values at, just below, and just above each bound.
func TestHistogramObserveBoundaryValues(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int // index into counts (len(bounds) = +Inf)
	}{
		{9, 0}, {10, 0}, {11, 1},
		{19, 1}, {20, 1}, {21, 2},
		{49, 2}, {50, 2}, {51, 3},
	}
	for _, c := range cases {
		h := NewHistogram([]int64{10, 20, 50})
		h.Observe(c.v)
		for i := range h.counts {
			want := int64(0)
			if i == c.bucket {
				want = 1
			}
			if got := h.counts[i].Load(); got != want {
				t.Fatalf("Observe(%d): counts[%d] = %d, want %d", c.v, i, got, want)
			}
		}
	}
}

// TestHistogramQuantileRankRounding regresses the floating-point rank bug:
// ceil(q*n) could round 0.07*100 = 7.000000000000001 up to rank 8, skipping
// a bucket boundary and reporting the next bucket's bound.
func TestHistogramQuantileRankRounding(t *testing.T) {
	h := NewHistogram([]int64{10, 20})
	for i := 0; i < 7; i++ {
		h.Observe(5)
	}
	for i := 0; i < 93; i++ {
		h.Observe(15)
	}
	// Rank ceil(0.07*100) = 7 is the last observation in the first bucket.
	if got := h.Quantile(0.07); got != 10 {
		t.Fatalf("Quantile(0.07) = %d, want 10 (rank 7 of 100 lands in the first bucket)", got)
	}
	if got := h.Quantile(0.08); got != 20 {
		t.Fatalf("Quantile(0.08) = %d, want 20", got)
	}
}

// TestQuantileRank pins the one rank rule every bucket quantile reads:
// ceil(q*n) without float overshoot, clamped to [1, n].
func TestQuantileRank(t *testing.T) {
	for _, c := range []struct {
		q       float64
		n, rank int64
	}{
		{0.99, 60, 60}, // round(59.4) would be 59
		{0.5, 60, 30},
		{0.07, 100, 7}, // 0.07*100 carries float error above 7
		{0.999, 1000, 999},
		{0, 10, 1},
		{-1, 10, 1},
		{1, 10, 10},
		{2, 10, 10},
	} {
		if got := QuantileRank(c.q, c.n); got != c.rank {
			t.Errorf("QuantileRank(%v, %d) = %d, want %d", c.q, c.n, got, c.rank)
		}
	}
}

// TestHistogramPrometheusEdgeExposition checks that a value observed at a
// bound is exposed under that bound's le label.
func TestHistogramPrometheusEdgeExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edge_ns", "edge test", []int64{10, 20})
	h.Observe(10)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`edge_ns_bucket{le="10"} 1`,
		`edge_ns_bucket{le="20"} 1`,
		`edge_ns_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
