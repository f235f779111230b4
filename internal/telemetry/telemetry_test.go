package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryHandsOutNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", nil)
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil instruments, got %v %v %v", c, g, h)
	}
	// All mutations and reads on nil instruments are no-ops.
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(10)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.99) != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if r.PrometheusText() != "" {
		t.Fatal("nil registry exposition must be empty")
	}
}

func TestGetOrCreateIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("lake_x_total", "x things")
	b := r.Counter("lake_x_total", "ignored on re-register")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	h1 := r.Histogram("lake_h", "", []int64{1, 2})
	h2 := r.Histogram("lake_h", "", []int64{99}) // bounds only consulted on create
	if h1 != h2 {
		t.Fatal("same name must return the same histogram")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type mismatch must panic")
		}
	}()
	r.Gauge("lake_x_total", "")
}

// TestAttachCounter pins the owner/exporter split: a component-owned
// counter value counts with no registry at all, appears in every exposition
// once attached, and a later attachment under the same name takes the
// series over.
func TestAttachCounter(t *testing.T) {
	var owned Counter
	owned.Add(2)
	(*Registry)(nil).AttachCounter("lake_owned_total", "owned", &owned) // no-op, must not panic

	r := NewRegistry()
	r.AttachCounter("lake_owned_total", "owned things", &owned)
	r.AttachCounter("lake_owned_total", "owned things", &owned) // idempotent
	owned.Inc()
	if got := r.Snapshot().Counters["lake_owned_total"]; got != 3 {
		t.Fatalf("attached counter exports %d, want the owner's 3", got)
	}
	if got := r.Counter("lake_owned_total", ""); got != &owned {
		t.Fatal("get-or-create on an attached name must return the attached counter")
	}
	text := r.PrometheusText()
	for _, want := range []string{"# HELP lake_owned_total owned things", "# TYPE lake_owned_total counter", "lake_owned_total 3"} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus text missing %q:\n%s", want, text)
		}
	}

	var successor Counter
	successor.Inc()
	r.AttachCounter("lake_owned_total", "owned things", &successor)
	if got := r.Snapshot().Counters["lake_owned_total"]; got != 1 {
		t.Fatalf("re-attached series reads %d, want the new owner's 1", got)
	}
	if n := strings.Count(r.PrometheusText(), "# TYPE lake_owned_total"); n != 1 {
		t.Fatalf("re-attachment listed the family %d times", n)
	}
}

func TestRegistryGaugeFunc(t *testing.T) {
	r := NewRegistry()
	g := r.GaugeFunc("lake_up", "derived", func() int64 { return 42 })
	if g.Value() != 42 {
		t.Fatalf("GaugeFunc value = %d, want 42", g.Value())
	}
	if snap := r.Snapshot(); snap.Gauges["lake_up"] != 42 {
		t.Fatalf("snapshot gauge = %d, want 42", snap.Gauges["lake_up"])
	}
	if merged := MergedSnapshot(r, NewRegistry()); merged.Gauges["lake_up"] != 42 {
		t.Fatalf("merged snapshot missing gaugefunc series: %+v", merged)
	}
	text := r.PrometheusText()
	for _, want := range []string{"# TYPE lake_up gauge", "lake_up 42"} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus text missing %q:\n%s", want, text)
		}
	}
}

func TestCounterRejectsNegativeAdd(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	c.Add(10)
	c.Add(-4)
	if got := c.Value(); got != 10 {
		t.Fatalf("negative Add must be ignored, got %d", got)
	}
}

func TestConcurrentIncrement(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Exercise get-or-create concurrently too.
			c := r.Counter("lake_conc_total", "")
			g := r.Gauge("lake_conc_depth", "")
			h := r.Histogram("lake_conc_ns", "", DefaultLatencyBuckets())
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(int64(i) * 1000)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("lake_conc_total", "").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("lake_conc_depth", "").Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	if got := r.Histogram("lake_conc_ns", "", nil).Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]int64{10, 20, 50})
	// A value equal to a bound lands in that bound's bucket; one past it
	// spills to the next; values beyond the last bound go to +Inf.
	for _, v := range []int64{1, 10, 11, 20, 21, 50, 51, 1 << 40} {
		h.Observe(v)
	}
	bounds, cum := h.bucketCounts()
	if len(bounds) != 3 || len(cum) != 4 {
		t.Fatalf("unexpected shape: bounds=%v cum=%v", bounds, cum)
	}
	// cumulative: <=10 holds {1,10}; <=20 adds {11,20}; <=50 adds {21,50};
	// +Inf adds {51, 2^40}.
	want := []int64{2, 4, 6, 8}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (cum=%v)", i, cum[i], w, cum)
		}
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]int64{10, 20, 50})
	if h.Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	for i := 0; i < 90; i++ {
		h.Observe(5) // <=10 bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(15) // <=20 bucket
	}
	if got := h.Quantile(0.50); got != 10 {
		t.Fatalf("p50 = %d, want 10", got)
	}
	if got := h.Quantile(0.95); got != 20 {
		t.Fatalf("p95 = %d, want 20", got)
	}
	h.Observe(1 << 30) // overflow bucket saturates to last finite bound
	if got := h.Quantile(1.0); got != 50 {
		t.Fatalf("p100 with overflow = %d, want 50 (saturated)", got)
	}
}

func TestSnapshotWhileWriting(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("lake_snap_total", "")
	h := r.Histogram("lake_snap_ns", "", []int64{100, 1000})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(500)
				}
			}
		}()
	}
	// Snapshots under write load must stay well-formed and monotone.
	var last int64
	for i := 0; i < 200; i++ {
		snap := r.Snapshot()
		v := snap.Counters["lake_snap_total"]
		if v < last {
			t.Fatalf("counter snapshot went backwards: %d -> %d", last, v)
		}
		last = v
		hs := snap.Histograms["lake_snap_ns"]
		if len(hs.Buckets) != 3 {
			t.Fatalf("histogram snapshot buckets = %d, want 3", len(hs.Buckets))
		}
		for j := 1; j < len(hs.Buckets); j++ {
			if hs.Buckets[j].Cumulative < hs.Buckets[j-1].Cumulative {
				t.Fatalf("bucket counts not cumulative: %+v", hs.Buckets)
			}
		}
		if _, err := r.JSON(); err != nil {
			t.Fatalf("JSON export under load: %v", err)
		}
		_ = r.PrometheusText()
	}
	close(stop)
	wg.Wait()
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter(`lake_boundary_sent_total{channel="Netlink"}`, "frames sent").Add(3)
	r.Counter(`lake_boundary_sent_total{channel="Syscall"}`, "frames sent").Add(7)
	r.Gauge("lake_batcher_queue_depth", "queued items").Set(5)
	h := r.Histogram("lake_rtt_ns", "round trips", []int64{100, 1000})
	h.Observe(50)
	h.Observe(500)
	h.Observe(5000)
	text := r.PrometheusText()

	for _, want := range []string{
		"# TYPE lake_boundary_sent_total counter",
		`lake_boundary_sent_total{channel="Netlink"} 3`,
		`lake_boundary_sent_total{channel="Syscall"} 7`,
		"# TYPE lake_batcher_queue_depth gauge",
		"lake_batcher_queue_depth 5",
		"# TYPE lake_rtt_ns histogram",
		`lake_rtt_ns_bucket{le="100"} 1`,
		`lake_rtt_ns_bucket{le="1000"} 2`,
		`lake_rtt_ns_bucket{le="+Inf"} 3`,
		"lake_rtt_ns_sum 5550",
		"lake_rtt_ns_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// One family header even with multiple labeled series.
	if n := strings.Count(text, "# TYPE lake_boundary_sent_total"); n != 1 {
		t.Fatalf("family header emitted %d times, want 1:\n%s", n, text)
	}
	// Labeled series of one family must be adjacent.
	nl := strings.Index(text, `channel="Netlink"`)
	sc := strings.Index(text, `channel="Syscall"`)
	if nl == -1 || sc == -1 || sc < nl {
		t.Fatalf("family series out of order:\n%s", text)
	}
}

func TestJSONSnapshotShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("lake_a_total", "").Inc()
	r.Histogram("lake_b_ns", "", []int64{10}).Observe(5)
	raw, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if snap.Counters["lake_a_total"] != 1 {
		t.Fatalf("counter lost in round trip: %+v", snap)
	}
	if hs := snap.Histograms["lake_b_ns"]; hs.Count != 1 || hs.Sum != 5 {
		t.Fatalf("histogram lost in round trip: %+v", snap)
	}
}

func TestSplitName(t *testing.T) {
	fam, labels := SplitName(`lake_x_total{channel="Netlink"}`)
	if fam != "lake_x_total" || labels != `{channel="Netlink"}` {
		t.Fatalf("SplitName = %q %q", fam, labels)
	}
	fam, labels = SplitName("plain")
	if fam != "plain" || labels != "" {
		t.Fatalf("SplitName(plain) = %q %q", fam, labels)
	}
}
