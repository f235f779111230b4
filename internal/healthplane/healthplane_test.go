package healthplane

import (
	"strings"
	"testing"
	"time"

	"lakego/internal/core"
	"lakego/internal/flightrec"
	"lakego/internal/lifecycle"
	"lakego/internal/nn"
	"lakego/internal/telemetry"
	"lakego/internal/vtime"
)

// sourcedPlane builds a plane over a fresh clock, an enabled recorder and a
// registry, with a probe reporting one ready shard, and returns the recorder
// and registry the test drives.
func sourcedPlane() (*Plane, *flightrec.Recorder, *telemetry.Registry) {
	clock := vtime.New()
	rec := flightrec.New(clock, 256)
	rec.SetEnabled(true)
	reg := telemetry.NewRegistry()
	p := newPlane(clock.Now, rec, reg.Snapshot, func() []ShardHealth {
		return []ShardHealth{{State: "Healthy", Ready: true, Handled: 1}}
	})
	return p, rec, reg
}

func TestBurnRate(t *testing.T) {
	if got := burnRate(0, 0, 0.999); got != 0 {
		t.Fatalf("empty window burns %v, want 0", got)
	}
	// 1% failing against a 0.1% budget burns at 10x.
	if got := burnRate(990, 10, 0.999); got < 9.99 || got > 10.01 {
		t.Fatalf("burn = %v, want ~10", got)
	}
	// All-good traffic burns nothing.
	if got := burnRate(1000, 0, 0.999); got != 0 {
		t.Fatalf("all-good burn = %v, want 0", got)
	}
	// A 100% target must not divide by zero.
	if got := burnRate(0, 10, 1.0); got <= 0 {
		t.Fatalf("target=1 burn = %v, want positive", got)
	}
}

func TestWindowTallyAndRings(t *testing.T) {
	p, _, _ := sourcedPlane()
	o := p.objs[0] // calls, 5ms budget

	p.sample(StageCall, 0, int64(500*time.Microsecond), 1, 10) // good
	p.sample(StageCall, 0, int64(6*time.Millisecond), 2, 4)    // bad
	p.fail(StageCall, 2, 1)

	if g, b := windowTally(o, 2, 1); g != 0 || b != 5 {
		t.Fatalf("tick-2 window = (%d,%d), want (0,5)", g, b)
	}
	if g, b := windowTally(o, 2, 3); g != 10 || b != 5 {
		t.Fatalf("3-tick window = (%d,%d), want (10,5)", g, b)
	}
	// Lapping the ring (longTicks slots) reuses tick 2's slot and retires
	// ticks 1 and 2 from the long window's tally.
	p.sample(StageCall, 0, int64(time.Microsecond), 2+longTicks, 2)
	if g, b := windowTally(o, 2+longTicks, longTicks); g != 2 || b != 0 {
		t.Fatalf("post-lap window = (%d,%d), want (2,0)", g, b)
	}
}

func TestEvaluateLatchAndRearm(t *testing.T) {
	p, _, _ := sourcedPlane()
	o := p.objs[0] // calls: target 0.999

	// All-bad traffic burns at 1/(1-0.999) = 1000 >= fastBurn in both windows.
	p.fail(StageCall, 1, 100)
	tripped := p.evaluate(1)
	if len(tripped) != 1 || tripped[0] != o || o.severity != "fast-burn" {
		t.Fatalf("evaluate = %+v, want one fast-burn trip of calls", tripped)
	}
	if !o.inAlert {
		t.Fatal("objective not latched after trip")
	}
	// The latch holds: re-evaluating the same burning state trips nothing.
	if again := p.evaluate(1); len(again) != 0 {
		t.Fatalf("latched objective re-tripped: %+v", again)
	}

	// A flood of good traffic brings both the long and the short window
	// below slowBurn (100 bad of 100,100 burns at ~1) and re-arms the latch.
	p.sample(StageCall, 0, 0, 2, 100000)
	if cleared := p.evaluate(2); len(cleared) != 0 || o.inAlert {
		t.Fatalf("alert did not clear: tripped=%v inAlert=%v", cleared, o.inAlert)
	}

	// A second breach episode, once the first has left the long window,
	// trips a second alert.
	next := int64(3 + longTicks)
	p.fail(StageCall, next, 100)
	if second := p.evaluate(next); len(second) != 1 {
		t.Fatalf("re-armed objective did not re-trip: %+v", second)
	}
}

func TestPollIngestsTailAndHistogramDeltas(t *testing.T) {
	p, rec, reg := sourcedPlane()
	h := reg.Histogram("lake_lib_call_latency_ns", "t", telemetry.DefaultLatencyBuckets())

	rec.Emit(flightrec.DomainKernel, flightrec.EvCallEnd, 0, 1, 0, 7, 0, uint64(500*time.Microsecond)) // the boundary round trip
	rec.Emit(flightrec.DomainGPU, flightrec.EvExec, 0, 2, 0, uint64(30*time.Microsecond), uint64(5*time.Microsecond), 0)
	rec.Emit(flightrec.DomainKernel, flightrec.EvCallEnd, 0, 3, 0, 7, 1, 0) // Result!=0: outright call failure
	for i := 0; i < 3; i++ {
		h.Observe(int64(2 * time.Millisecond))
	}

	incidents := p.Poll()
	// 1 failed + 3 good calls against the default 0.999 target burns at
	// (1/4)/0.001 = 250 in every window: the calls objective fast-burns and
	// captures exactly one incident on the rising edge.
	if len(incidents) != 1 {
		t.Fatalf("Poll captured %d incidents, want 1", len(incidents))
	}
	inc := incidents[0]
	if inc.Trigger != "fast-burn" || inc.Objective != "calls" {
		t.Fatalf("incident = %s/%s, want fast-burn/calls", inc.Trigger, inc.Objective)
	}
	if inc.Dump == nil || inc.Dump.TotalEvents() == 0 {
		t.Fatal("incident bundle missing flight dump")
	}
	if inc.Telemetry.Histograms == nil {
		t.Fatal("incident bundle missing telemetry snapshot")
	}
	if inc.SLO == nil {
		t.Fatal("incident bundle missing SLO state")
	}
	// The latch holds across polls: no second incident for the same episode.
	if again := p.Poll(); len(again) != 0 {
		t.Fatalf("latched breach re-captured: %d incidents", len(again))
	}

	snap := p.SLO()
	counts := map[string]int64{}
	for _, st := range snap.Stages {
		if st.Shard == "*" {
			counts[st.Stage] = st.Windows[0].Count
		}
	}
	if counts[StageBoundary] != 1 || counts[StageGPUExec] != 1 || counts[StageGPUQueue] != 1 {
		t.Fatalf("event stage counts = %v", counts)
	}
	// 3 histogram observations ingested once, as deltas — not re-counted on
	// the second and third polls.
	if counts[StageCall] != 3 {
		t.Fatalf("call stage count = %d, want 3 (delta ingestion)", counts[StageCall])
	}
	if snap.Skipped != 0 {
		t.Fatalf("tail skipped %d events on an idle ring", snap.Skipped)
	}

	// One more observation arrives: exactly one more sample lands.
	h.Observe(int64(2 * time.Millisecond))
	p.Poll()
	snap = p.SLO()
	for _, st := range snap.Stages {
		if st.Shard == "*" && st.Stage == StageCall && st.Windows[0].Count != 4 {
			t.Fatalf("call stage count = %d after delta, want 4", st.Windows[0].Count)
		}
	}
}

// TestDemotionFallbackCapture boots a lifecycle manager and a plane on one
// runtime, with nothing linking the two but the runtime's recorder: each
// drift episode — a demotion to the previous version, then fallback once no
// version is left — captures exactly one drift-demotion incident.
func TestDemotionFallbackCapture(t *testing.T) {
	rt, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	base := nn.New(1, 2, 2)
	m, err := lifecycle.New(rt, "pred", base)
	if err != nil {
		t.Fatal(err)
	}
	// A second version, so the first drift episode has one to demote to.
	v2net := base.Clone()
	v2net.Layers[0].W[0] += 0.25
	if _, err := m.Promote(v2net); err != nil {
		t.Fatal(err)
	}

	p := Attach(rt)
	if inc := p.Poll(); len(inc) != 0 { // a promotion is no drift
		t.Fatalf("baseline poll captured %d incidents", len(inc))
	}

	const driftWindow = 256 // outcomes per lifecycle drift window
	// One constant X with alternating labels: every network scores exactly
	// half of a shadow round, so the trainer never promotes, and the served
	// predictions are right (good) or wrong (bad) as the test says.
	feed := func(good bool, n int) {
		for i := 0; i < n; i++ {
			o := lifecycle.Outcome{X: []float32{0, 0}, Label: i % 2, Predicted: i % 2}
			if !good {
				o.Predicted = 1 - o.Label
			}
			m.Observe(o)
			m.Pump()
		}
	}
	episode := func(name, detail string) {
		t.Helper()
		feed(false, 2*driftWindow) // two windows below the pinned baseline
		inc := p.Poll()
		if len(inc) != 1 || inc[0].Trigger != "drift-demotion" {
			t.Fatalf("%s: capture = %+v, want one drift-demotion", name, inc)
		}
		if !strings.Contains(inc[0].Detail, detail) {
			t.Fatalf("%s: incident detail %q lacks %q", name, inc[0].Detail, detail)
		}
		if inc[0].Dump == nil || inc[0].SLO == nil {
			t.Fatalf("%s: incident bundle lacks its dump or SLO state", name)
		}
		if more := p.Poll(); len(more) != 0 {
			t.Fatalf("%s: re-captured %d incidents", name, len(more))
		}
	}

	feed(true, driftWindow) // pins a perfect baseline
	episode("demotion", "serving version 1")
	if st := m.Stats(); st.Demotions != 1 || st.Fallback {
		t.Fatalf("after the first episode: %+v, want one demotion and no fallback", st)
	}
	episode("fallback", "heuristic fallback")
	if m.Healthy() {
		t.Fatal("manager still healthy after the version stack ran out")
	}
}

func TestIncidentRingBound(t *testing.T) {
	p, _, _ := sourcedPlane()
	p.mu.Lock()
	for i := 0; i < 11; i++ {
		p.captureLocked("test", "n", "")
	}
	p.mu.Unlock()
	incs := p.Incidents()
	if len(incs) != maxIncidents {
		t.Fatalf("retained %d incidents, want %d", len(incs), maxIncidents)
	}
	for i, inc := range incs {
		if want := 4 + i; inc.ID != want {
			t.Fatalf("retained incident %d has ID %d, want %d (IDs 4-11, newest kept)", i, inc.ID, want)
		}
	}
}

// TestQuantileFromBucketsMatchesHistogram holds the windowed quantiles of
// /slo.json to the rank rule of telemetry's histograms behind /metrics: the
// same observations read the same bucket. At p99 over 60 observations the
// rank is 60, not the 59 that round(q*n) picks.
func TestQuantileFromBucketsMatchesHistogram(t *testing.T) {
	bounds := []int64{1, 2, 4, 8}
	if got := quantileFromBuckets(bounds, []int64{59, 1, 0, 0, 0}, 0.99); got != 2 {
		t.Fatalf("p99 of 59x1 and 1x2 = %d, want 2 (rank 60 of 60)", got)
	}
	for _, counts := range [][]int64{
		{59, 1, 0, 0, 0},
		{0, 999, 1, 0, 0},
		{3, 3, 3, 3, 3},
		{7, 0, 93, 0, 0},
		{1, 0, 0, 0, 1},
		{0, 0, 0, 0, 5},
	} {
		h := telemetry.NewHistogram(bounds)
		for i, c := range counts {
			v := int64(16) // past the last bound: the +Inf bucket
			if i < len(bounds) {
				v = bounds[i]
			}
			for j := int64(0); j < c; j++ {
				h.Observe(v)
			}
		}
		for _, q := range []float64{0, 0.07, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
			if got, want := quantileFromBuckets(bounds, counts, q), h.Quantile(q); got != want {
				t.Errorf("counts %v q=%v: quantileFromBuckets = %d, Histogram.Quantile = %d", counts, q, got, want)
			}
		}
	}
}

func TestHistogramShardAttribution(t *testing.T) {
	p, _, reg := sourcedPlane()
	h := reg.Histogram(`lake_lib_call_latency_ns{shard="3"}`, "t", telemetry.DefaultLatencyBuckets())
	h.Observe(int64(time.Millisecond))
	p.Poll()
	snap := p.SLO()
	var found bool
	for _, st := range snap.Stages {
		if st.Stage == StageCall && st.Shard == "3" && st.Windows[2].Count == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("shard-labeled histogram not attributed to shard 3: %+v", snap.Stages)
	}
}
