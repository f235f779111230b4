package healthplane

import (
	"strings"
	"testing"
	"time"

	"lakego/internal/flightrec"
	"lakego/internal/lifecycle"
	"lakego/internal/nn"
	"lakego/internal/telemetry"
	"lakego/internal/vtime"
)

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
	p := newPlane(Config{Tick: time.Millisecond, ShortTicks: 3, LongTicks: 5,
		Objectives: []Objective{{Name: "o", Stage: StageCall, Budget: time.Millisecond, Target: 0.9}}})
	o := p.objs[0]
	p.sample(StageCall, 0, int64(500*time.Microsecond), 1, 10) // good
	p.sample(StageCall, 0, int64(2*time.Millisecond), 2, 4)    // bad
	p.fail(StageCall, 2, 1)

	if g, b := windowTally(o, 2, 1); g != 0 || b != 5 {
		t.Fatalf("tick-2 window = (%d,%d), want (0,5)", g, b)
	}
	if g, b := windowTally(o, 2, 3); g != 10 || b != 5 {
		t.Fatalf("3-tick window = (%d,%d), want (10,5)", g, b)
	}
	// Lapping the ring (LongTicks=5) retires old ticks from the tally.
	p.sample(StageCall, 0, int64(time.Microsecond), 7, 2)
	if g, b := windowTally(o, 7, 5); g != 2 || b != 0 {
		t.Fatalf("post-lap window = (%d,%d), want (2,0)", g, b)
	}
}

func TestEvaluateLatchAndRearm(t *testing.T) {
	p := newPlane(Config{Tick: time.Millisecond, ShortTicks: 3, LongTicks: 6,
		Objectives: []Objective{{Name: "o", Stage: StageCall, Budget: time.Microsecond, Target: 0.95}}})
	o := p.objs[0]

	// All-bad traffic burns at 1/(1-0.95) = 20 >= fastBurn in both windows.
	p.fail(StageCall, 1, 100)
	tripped := p.evaluate(1)
	if len(tripped) != 1 || tripped[0].severity != "fast-burn" {
		t.Fatalf("evaluate = %+v, want one fast-burn trip", tripped)
	}
	if !o.inAlert {
		t.Fatal("objective not latched after trip")
	}
	// The latch holds: re-evaluating the same burning state trips nothing.
	if again := p.evaluate(1); len(again) != 0 {
		t.Fatalf("latched objective re-tripped: %+v", again)
	}

	// A flood of good traffic clears both windows and re-arms the latch.
	p.sample(StageCall, 0, 0, 2, 10000)
	if cleared := p.evaluate(2); len(cleared) != 0 || o.inAlert {
		t.Fatalf("alert did not clear: tripped=%v inAlert=%v", cleared, o.inAlert)
	}

	// A second breach episode trips a second alert.
	p.fail(StageCall, 9, 100)
	if second := p.evaluate(9); len(second) != 1 {
		t.Fatalf("re-armed objective did not re-trip: %+v", second)
	}
}

func TestPollIngestsTailAndHistogramDeltas(t *testing.T) {
	clock := vtime.New()
	rec := flightrec.New(clock, 256)
	rec.SetEnabled(true)
	reg := telemetry.NewRegistry()
	h := reg.Histogram("lake_lib_call_latency_ns", "t", telemetry.DefaultLatencyBuckets())

	p := newPlane(Config{Tick: time.Millisecond})
	p.now, p.rec, p.snapFn = clock.Now, rec, reg.Snapshot

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

func TestWatchdogStall(t *testing.T) {
	sh := ShardHealth{Ordinal: 0, State: "Active", Ready: true, Outstanding: 5, Handled: 100}
	p := newPlane(Config{})
	p.shardProbe = func() []ShardHealth { return []ShardHealth{sh} }

	if inc := p.Poll(); len(inc) != 0 { // first sight: baseline only
		t.Fatalf("baseline poll captured %d incidents", len(inc))
	}
	for i := 1; i < stallPolls; i++ { // stall polls 1 and 2 of 3
		if inc := p.Poll(); len(inc) != 0 {
			t.Fatalf("premature watchdog trip after %d stalled polls", i)
		}
	}
	inc := p.Poll() // stall poll 3 of 3: trip
	if len(inc) != 1 || inc[0].Trigger != "watchdog-stall" {
		t.Fatalf("watchdog = %+v, want one watchdog-stall", inc)
	}
	if more := p.Poll(); len(more) != 0 { // tripped latch holds
		t.Fatalf("stalled shard re-captured: %d", len(more))
	}

	sh.Handled = 150 // progress resumes: watchdog re-arms
	if inc := p.Poll(); len(inc) != 0 {
		t.Fatalf("progress poll captured %d incidents", len(inc))
	}
	sh.Outstanding, sh.Handled = 3, 150
	p.Poll() // stall poll 1 of 3
	p.Poll() // stall poll 2 of 3
	if inc := p.Poll(); len(inc) != 1 {
		t.Fatalf("second stall episode captured %d incidents, want 1", len(inc))
	}
}

func TestDemotionFallbackCapture(t *testing.T) {
	cfg := lifecycle.DefaultConfig("pred")
	cfg.DriftWindow = 4
	m, err := lifecycle.NewManager(vtime.New(), cfg, nn.New(1, 2, 2))
	if err != nil {
		t.Fatal(err)
	}

	p := newPlane(Config{})
	p.Watch(m)                          // installs the demotion hook
	if inc := p.Poll(); len(inc) != 0 { // baseline: records stats
		t.Fatalf("baseline poll captured %d incidents", len(inc))
	}

	// The first drift window pins a perfect baseline; the next two are
	// all-wrong, and with no predecessor version the demotion lands in
	// fallback.
	for i := 0; i < cfg.DriftWindow; i++ {
		m.Observe(lifecycle.Outcome{X: []float32{0}, Predicted: 1, Label: 1})
	}
	m.Pump()
	for i := 0; i < 2*cfg.DriftWindow; i++ {
		m.Observe(lifecycle.Outcome{X: []float32{0}, Predicted: 1, Label: 0})
	}
	m.Pump()
	if m.Healthy() {
		t.Fatal("manager still healthy; drift scenario did not demote")
	}
	if !p.demotePing.Load() {
		t.Fatal("demotion hook did not ping the plane")
	}

	inc := p.Poll()
	if len(inc) != 1 || inc[0].Trigger != "drift-demotion" {
		t.Fatalf("demotion capture = %+v, want one drift-demotion", inc)
	}
	if !strings.Contains(inc[0].Detail, "pred") {
		t.Fatalf("incident detail %q does not name the model", inc[0].Detail)
	}
	if len(inc[0].Models) != 1 || !inc[0].Models[0].Stats.Fallback {
		t.Fatalf("incident registry state = %+v, want fallback pred", inc[0].Models)
	}
	if len(inc[0].Models[0].Versions) != 1 {
		t.Fatalf("registry versions = %d, want 1", len(inc[0].Models[0].Versions))
	}
	if more := p.Poll(); len(more) != 0 { // no re-capture while fallen back
		t.Fatalf("fallback re-captured: %d", len(more))
	}

	// Watching the same manager again changes nothing.
	p.Watch(m)
	if n := len(p.SLO().Models); n != 1 {
		t.Fatalf("re-watched manager listed %d times, want 1", n)
	}

	// A fresh manager for the same model replaces the fallen one and starts
	// a new baseline: its zero demotion count and healthy state are not
	// compared against the old manager's.
	fresh, err := lifecycle.NewManager(vtime.New(), cfg, nn.New(1, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	p.Watch(fresh)
	if inc := p.Poll(); len(inc) != 0 {
		t.Fatalf("replacement poll captured %d incidents", len(inc))
	}
	if st := p.SLO().Models; len(st) != 1 || st[0].Fallback {
		t.Fatalf("models after replacement = %+v, want the one healthy pred", st)
	}

	// Managers for other models list in name order, whatever the watch order.
	other, err := lifecycle.NewManager(vtime.New(), lifecycle.DefaultConfig("alpha"), nn.New(1, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	p.Watch(other)
	if st := p.SLO().Models; len(st) != 2 || st[0].Model != "alpha" || st[1].Model != "pred" {
		t.Fatalf("models = %+v, want alpha then pred", st)
	}
}

func TestIncidentRingBound(t *testing.T) {
	p := newPlane(Config{})
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
	reg := telemetry.NewRegistry()
	h := reg.Histogram(`lake_lib_call_latency_ns{shard="3"}`, "t", telemetry.DefaultLatencyBuckets())
	p := newPlane(Config{})
	p.snapFn = reg.Snapshot
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
