// Package telemetry is LAKE's metrics plane: low-overhead atomic counters,
// gauges and fixed-bucket histograms shared by every layer of the runtime —
// boundary transport, remoting, lakeD dispatch, the batcher, the GPU model
// and the supervisor. Per-call stage timelines are not recorded here; they
// are folds over the flight recorder (internal/flightrec: Stitch, Spans).
//
// The paper's core argument is quantitative: Fig 3's profitability
// crossovers and §6's per-API breakdown both depend on knowing where time
// goes across the kernel↔user boundary. This package makes that signal
// always available at runtime instead of only inside ad-hoc experiment
// harnesses: subsystems hold their instruments directly (no map lookup on
// the hot path), every mutation is a handful of atomic operations with no
// allocation, and the whole registry can be exposed as Prometheus text or a
// JSON snapshot (core.Runtime.Telemetry, laked -telemetry-addr,
// lakebench -metrics).
//
// Each fact is counted once. A component owns its counters as Counter
// values — the same field its Stats-style accessor reads — and the registry
// only exports them (AttachCounter), so they count whether telemetry is on
// or off. Gauges and histograms are registry-owned and nil-safe: methods on
// a nil *Gauge or *Histogram are no-ops, so a runtime built with telemetry
// disabled pays only an untaken nil-check branch per site.
//
// Clock semantics: latency observations are virtual time (internal/vtime) —
// deterministic simulated nanoseconds.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Shared instrument names. The batcher, the offload runner and the Fig 3
// policy feedback all refer to the same observed-latency histograms; naming
// them once keeps the writers and the reader wired to the same series.
const (
	// MetricGPUItemLatency aggregates observed per-item virtual latency of
	// GPU-routed inference (batcher flushes and offload runs).
	MetricGPUItemLatency = "lake_gpu_item_latency_ns"
	// MetricCPUItemLatency is the CPU-fallback counterpart.
	MetricCPUItemLatency = "lake_cpu_item_latency_ns"
)

// Namer composes one full series name from its family and label pairs
// (`k="v"`). Components declare their series through the Namer their
// runtime hands them, so runtime-wide labels (the fleet's shard pair) are
// added in one place; core.metricName is the implementation.
type Namer func(family string, pairs ...string) string

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored: counters are monotonic).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. A nil Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add applies a delta (queue depths go both ways).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds a process's named instruments. Instruments are
// get-or-create by full name (which may carry Prometheus-style labels,
// e.g. `lake_boundary_sent_total{channel="Netlink"}`). A nil *Registry
// hands out nil instruments and attaches nothing, so callers declare their
// series unconditionally and pay nothing when telemetry is disabled.
type Registry struct {
	mu      sync.Mutex
	order   []string // registration order, for stable exposition
	metrics map[string]interface{}
	help    map[string]string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		metrics: make(map[string]interface{}),
		help:    make(map[string]string),
	}
}

// instrument get-or-creates the named instrument using mk (nil for a nil
// registry); an existing entry must have the matching type (a mismatch is a
// programming error).
func instrument[T any](r *Registry, name, help string, mk func() *T) *T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		t, ok := m.(*T)
		if !ok {
			panic(fmt.Sprintf("telemetry: %q already registered as %T", name, m))
		}
		return t
	}
	t := mk()
	r.metrics[name] = t
	r.help[name] = help
	r.order = append(r.order, name)
	return t
}

// Counter get-or-creates a registry-owned counter (nil for a nil registry).
func (r *Registry) Counter(name, help string) *Counter {
	return instrument(r, name, help, func() *Counter { return &Counter{} })
}

// AttachCounter exports a counter its component owns: the component holds
// the Counter as a value, counts into it whether or not a registry exists,
// and reads it back from its own Stats-style accessors; the registry only
// lists it for exposition. A nil registry is a no-op. Attaching under a
// name already taken replaces the earlier counter — the series follows the
// newest owner, which scrapers see as a counter reset.
func (r *Registry) AttachCounter(name, help string, c *Counter) {
	if r == nil || instrument(r, name, help, func() *Counter { return c }) == c {
		return
	}
	r.mu.Lock()
	r.metrics[name] = c
	r.mu.Unlock()
}

// Gauge get-or-creates a gauge (nil for a nil registry).
func (r *Registry) Gauge(name, help string) *Gauge {
	return instrument(r, name, help, func() *Gauge { return &Gauge{} })
}

// GaugeFunc is a gauge whose value is computed at read time by a callback —
// uptime clocks, derived sizes. The callback must be safe for concurrent
// use and cheap; it runs on every snapshot and exposition. A nil GaugeFunc
// (or nil callback) reads 0.
type GaugeFunc struct {
	f func() int64
}

// Value invokes the callback (0 for nil).
func (g *GaugeFunc) Value() int64 {
	if g == nil || g.f == nil {
		return 0
	}
	return g.f()
}

// GaugeFunc get-or-creates a callback gauge (nil for a nil registry). The
// callback is only installed on first creation.
func (r *Registry) GaugeFunc(name, help string, f func() int64) *GaugeFunc {
	return instrument(r, name, help, func() *GaugeFunc { return &GaugeFunc{f: f} })
}

// Histogram get-or-creates a histogram with the given bucket upper bounds
// (nil for a nil registry). Bounds are only consulted on first creation.
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	return instrument(r, name, help, func() *Histogram { return NewHistogram(bounds) })
}

// names returns the registered names in registration order; sortedNames in
// lexical order grouped for exposition.
func (r *Registry) snapshotLocked() ([]string, map[string]interface{}, map[string]string) {
	names := make([]string, len(r.order))
	copy(names, r.order)
	metrics := make(map[string]interface{}, len(r.metrics))
	help := make(map[string]string, len(r.help))
	for k, v := range r.metrics {
		metrics[k] = v
		help[k] = r.help[k]
	}
	return names, metrics, help
}

// SplitName separates a full metric name into its family and label part:
// `foo{a="b"}` -> (`foo`, `{a="b"}`); a plain name has an empty label part.
func SplitName(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// sortedByFamily returns names sorted so that series of the same family are
// adjacent (Prometheus exposition requires family grouping).
func sortedByFamily(names []string) []string {
	out := make([]string, len(names))
	copy(out, names)
	sort.SliceStable(out, func(i, j int) bool {
		fi, _ := SplitName(out[i])
		fj, _ := SplitName(out[j])
		if fi != fj {
			return fi < fj
		}
		return out[i] < out[j]
	})
	return out
}
