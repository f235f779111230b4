package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket histogram over int64 values (virtual-clock
// nanoseconds for latencies, item counts for batch sizes). Observation is
// allocation-free: a short linear scan over the bucket bounds plus two
// atomic adds. The count is the sum of the bucket counts, kept nowhere
// else. Reads (Count, Quantile, snapshots) are lock-free and may observe a
// concurrent write partially applied — the sum can transiently disagree
// with the count by in-flight observations, which is the standard
// monitoring trade-off and fine for exposition.
//
// A nil Histogram is a no-op. The zero value is unusable; construct with
// NewHistogram.
type Histogram struct {
	bounds []int64        // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Int64 // len(bounds)+1
	sum    atomic.Int64
}

// NewHistogram creates a histogram with the given ascending bucket upper
// bounds (values land in the first bucket whose bound is >= v; larger
// values land in the implicit +Inf bucket).
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets()
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// DefaultLatencyBuckets covers 1µs..1s in a 1-2-5 progression — the range
// LAKE's boundary crossings, launches and flushes span (Table 2, Fig 6 are
// tens of µs; contention tails reach ms).
func DefaultLatencyBuckets() []int64 {
	return []int64{
		1_000, 2_000, 5_000, // µs
		10_000, 20_000, 50_000,
		100_000, 200_000, 500_000,
		1_000_000, 2_000_000, 5_000_000, // ms
		10_000_000, 20_000_000, 50_000_000,
		100_000_000, 200_000_000, 500_000_000,
		1_000_000_000, // 1s
	}
}

// CountBuckets covers batch/queue sizes 1..1024 in powers of two.
func CountBuckets() []int64 {
	return []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a virtual duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values (0 for nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the average observed value (0 with no observations).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Quantile estimates the q-quantile (q in [0,1]) as the upper bound of the
// bucket holding the target observation; values in the overflow bucket
// saturate to the last finite bound. 0 with no observations.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	target := QuantileRank(q, n)
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.bounds[len(h.bounds)-1] // +Inf bucket: saturate
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// QuantileRank is the 1-based rank of the q-quantile among n ordered
// observations: ceil(q*n), clamped to [1, n]. Every bucket-quantile estimate
// in the stack (Histogram.Quantile, the health plane's windowed p50/p99/p999)
// reads the bucket holding this rank, so /metrics and /slo.json agree. The
// product can carry float error above the exact integer
// (0.07*100 = 7.000000000000001) and ceil would then skip to the next
// bucket, so an epsilon is shaved before rounding up.
func QuantileRank(q float64, n int64) int64 {
	rank := int64(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		return 1
	}
	if rank > n {
		return n
	}
	return rank
}

// bucketCounts snapshots cumulative bucket counts for exposition: one pair
// per finite bound plus the +Inf bucket.
func (h *Histogram) bucketCounts() (bounds []int64, cumulative []int64) {
	bounds = h.bounds
	cumulative = make([]int64, len(h.counts))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		cumulative[i] = cum
	}
	return bounds, cumulative
}
