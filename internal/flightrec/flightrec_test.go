package flightrec

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lakego/internal/telemetry"
	"lakego/internal/vtime"
)

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder must be disabled")
	}
	r.Emit(DomainKernel, EvCallStart, 1, 1, 0, 0, 0, 0)
	r.EmitFrame(EvFrameSend, []byte{1, 2, 3}, 0)
	r.BeginExec(7)
	r.EndExec()
	if r.ExecTrace() != 0 || r.NextTraceID() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder reads must be zero")
	}
	if r.Snapshot("x") != nil || r.TriggerDump("x") != nil || r.LastDump() != nil {
		t.Fatal("nil recorder must not produce dumps")
	}
}

func TestEventPackRoundTrip(t *testing.T) {
	e := Event{
		VTime: 123456789, TraceID: 1 << 60,
		Seq: 42, Domain: DomainGPU, Kind: EvCopy, Shard: 5, Device: 3,
		Arg0: 4096, Arg1: 777, Arg2: 1,
	}
	rg := newRing(64)
	var wall atomic.Int64
	rg.put(uint64(e.VTime), e.TraceID, e.Seq, packMeta(e.Domain, e.Kind, e.Shard, e.Device), e.Arg0, e.Arg1, e.Arg2, &wall)
	rg.put(0, 0, 0, 0, 0, 0, 0, &wall)
	got := make([]Event, 2)
	rg.tail(0, got)
	// Index 0 refreshes the coarse wall clock; index 1 reads it back.
	e.Wall = wall.Load()
	if got[0] != e {
		t.Fatalf("pack round trip lost data:\n got %+v\nwant %+v", got[0], e)
	}
	if got := got[1].Wall; got != e.Wall {
		t.Fatalf("second event's wall word %d, want the cached %d", got, e.Wall)
	}
}

func TestRecorderDisabledEmitsNothing(t *testing.T) {
	r := New(vtime.New(), 128)
	r.Emit(DomainKernel, EvCallStart, 1, 1, 0, 0, 0, 0)
	if d := r.Snapshot("probe"); d.TotalEvents() != 0 {
		t.Fatalf("disabled recorder captured %d events", d.TotalEvents())
	}
}

func TestEmitAndSnapshot(t *testing.T) {
	clock := vtime.New()
	r := New(clock, 128)
	r.SetEnabled(true)
	clock.Advance(10 * time.Microsecond)
	r.Emit(DomainKernel, EvCallStart, 9, 1, 0, 5, 0, 0)
	clock.Advance(time.Microsecond)
	r.Emit(DomainDaemon, EvDispatch, 9, 1, 0, 5, 0, 0)
	r.Emit(DomainGPU, EvExec, 9, 0, 2, 100, 0, 0)

	d := r.Snapshot("unit")
	if d.TotalEvents() != 3 || d.TotalDropped() != 0 {
		t.Fatalf("events=%d dropped=%d, want 3/0", d.TotalEvents(), d.TotalDropped())
	}
	k := d.Domains[DomainKernel].Events
	if len(k) != 1 || k[0].Kind != EvCallStart || k[0].TraceID != 9 ||
		k[0].VTime != 10*time.Microsecond {
		t.Fatalf("kernel event wrong: %+v", k)
	}
	g := d.Domains[DomainGPU].Events
	if len(g) != 1 || g[0].Device != 2 {
		t.Fatalf("gpu event lost device ordinal: %+v", g)
	}
}

func TestRingOverflowCountsDropped(t *testing.T) {
	r := New(vtime.New(), 64)
	r.SetEnabled(true)
	const n = 200
	for i := 0; i < n; i++ {
		r.Emit(DomainKernel, EvCallStart, uint64(i+1), uint64(i+1), 0, 0, 0, 0)
	}
	d := r.Snapshot("overflow")
	kd := d.Domains[DomainKernel]
	if len(kd.Events) != 64 {
		t.Fatalf("surviving events = %d, want 64", len(kd.Events))
	}
	if kd.Dropped != n-64 {
		t.Fatalf("dropped = %d, want %d (no silent truncation)", kd.Dropped, n-64)
	}
	if r.Dropped() != n-64 {
		t.Fatalf("live Dropped() = %d, want %d", r.Dropped(), n-64)
	}
	// Oldest-first, and the survivors are the newest writes.
	if kd.Events[0].TraceID != n-64+1 || kd.Events[63].TraceID != n {
		t.Fatalf("survivor window wrong: first=%d last=%d",
			kd.Events[0].TraceID, kd.Events[63].TraceID)
	}
}

// TestConcurrentEmitAndSnapshot hammers one recorder from many writers
// while snapshots run — the -race guard for the ring lock.
func TestConcurrentEmitAndSnapshot(t *testing.T) {
	r := New(vtime.New(), 256)
	r.SetEnabled(true)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				r.Emit(Domain(w%int(numDomains)), EvExec, uint64(w)<<32|uint64(i), 0, w, 1, 2, 3)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for writing := true; writing; {
		select {
		case <-done:
			writing = false
		default:
		}
		d := r.Snapshot("race")
		for _, dd := range d.Domains {
			for _, e := range dd.Events {
				if e.Kind != EvExec {
					t.Fatalf("snapshot returned a foreign event: %+v", e)
				}
			}
		}
	}
}

func TestTraceIDsAreFreshAndNonzero(t *testing.T) {
	r := New(vtime.New(), 64)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		id := r.NextTraceID()
		if id == 0 || seen[id] {
			t.Fatalf("trace id %d reused or zero", id)
		}
		seen[id] = true
	}
}

func TestExecTraceAttribution(t *testing.T) {
	r := New(vtime.New(), 64)
	r.SetEnabled(true)
	r.BeginExec(55)
	if r.ExecTrace() != 55 {
		t.Fatal("ExecTrace must surface the in-flight trace id")
	}
	r.EndExec()
	if r.ExecTrace() != 0 {
		t.Fatal("EndExec must clear the in-flight trace id")
	}
}

func TestDumpJSONRoundTrip(t *testing.T) {
	clock := vtime.New()
	r := New(clock, 64)
	r.SetEnabled(true)
	clock.Advance(time.Millisecond)
	r.Emit(DomainKernel, EvCallStart, 1, 1, 0, 8, 0, 0)
	r.Emit(DomainDaemon, EvExecEnd, 1, 1, 0, 8, 0, 0)
	d := r.Snapshot("roundtrip")

	js, err := d.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadDump(js)
	if err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if got.Reason != "roundtrip" || got.VNow != d.VNow || got.WallNow != d.WallNow {
		t.Fatalf("header lost: %+v", got)
	}
	if got.TotalEvents() != 2 ||
		got.Domains[DomainKernel].Events[0] != d.Domains[DomainKernel].Events[0] {
		t.Fatalf("events lost: %+v", got)
	}
	for name, bad := range map[string]string{
		"garbage":        "not a dump",
		"truncated":      string(js[:len(js)/2]),
		"version 1":      `{"version": 1, "domains": []}`, // per-member flush links
		"version 2":      `{"version": 2, "domains": []}`, // fifteen events per remoted call
		"version 4":      `{"version": 4, "domains": []}`,
		"domain ordinal": `{"version": 3, "domains": [{"domain": 200}]}`,
	} {
		if _, err := ReadDump([]byte(bad)); err == nil {
			t.Errorf("%s must not parse", name)
		}
	}
}

func TestTriggerDumpRetainsLast(t *testing.T) {
	r := New(vtime.New(), 64)
	r.SetEnabled(true)
	d := r.TriggerDump("crash")
	if d == nil || r.LastDump() != d {
		t.Fatal("TriggerDump must retain the dump")
	}
}

// synthetic timeline: one call with the full cross-domain chain — the four
// call events lakeLib and lakeD emit, plus the GPU work inside execution.
func emitCall(r *Recorder, clock *vtime.Clock, tid, seq, api uint64) {
	emitCallCopy(r, clock, tid, seq, api, 3*time.Microsecond)
}

// emitCallCopy is emitCall with a chosen transfer time.
func emitCallCopy(r *Recorder, clock *vtime.Clock, tid, seq, api uint64, copyV time.Duration) {
	r.Emit(DomainKernel, EvCallStart, tid, seq, 0, api, 64, 1500) // 1.5us marshal wall
	clock.Advance(2 * time.Microsecond)                           // queue
	r.Emit(DomainDaemon, EvDispatch, tid, seq, 0, api, 64, 0)
	r.Emit(DomainGPU, EvCopy, tid, 0, 1, 4096, uint64(copyV), 0)
	clock.Advance(copyV)                // the copy
	clock.Advance(5 * time.Microsecond) // compute
	r.Emit(DomainGPU, EvExec, tid, 0, 1, uint64(5*time.Microsecond), 0, 0)
	r.Emit(DomainDaemon, EvExecEnd, tid, seq, 0, api, 0, 0)
	clock.Advance(60 * time.Microsecond) // boundary round trip
	r.Emit(DomainKernel, EvCallEnd, tid, seq, 0, api, 0, uint64(60*time.Microsecond))
}

func TestStitchRebuildsTimelines(t *testing.T) {
	clock := vtime.New()
	r := New(clock, 1024)
	r.SetEnabled(true)
	for i := uint64(1); i <= 5; i++ {
		emitCall(r, clock, i, i, 3)
	}
	// One incomplete call: started, never finished.
	r.Emit(DomainKernel, EvCallStart, 99, 99, 0, 3, 0, 0)
	// One non-call trace id (batcher member) that must not count.
	r.Emit(DomainBatcher, EvEnqueue, 77, 1, 0, 1, 0, 0)

	res := Stitch(r.Snapshot("stitch"))
	if len(res.Timelines) != 6 {
		t.Fatalf("timelines = %d, want 6 (5 complete + 1 unfinished)", len(res.Timelines))
	}
	if res.Completed != 5 || res.Complete != 5 {
		t.Fatalf("completed=%d complete=%d, want 5/5", res.Completed, res.Complete)
	}
	tl := res.Timelines[0]
	if tl.TraceID != 1 || tl.API != 3 {
		t.Fatalf("first timeline wrong: %+v", tl)
	}
	if tl.Total() != 70*time.Microsecond {
		t.Fatalf("total = %v, want 70us", tl.Total())
	}
	if tl.Queue != 2*time.Microsecond || tl.Copy != 3*time.Microsecond ||
		tl.Exec != 5*time.Microsecond || tl.Boundary != 60*time.Microsecond ||
		tl.Other != 0 {
		t.Fatalf("stage partition wrong: %+v", tl)
	}
	if tl.Serialize != 1500*time.Nanosecond || tl.Device != 1 {
		t.Fatalf("serialize/device lost: %+v", tl)
	}
	if sum := tl.Queue + tl.Exec + tl.Copy + tl.Boundary + tl.Other; sum != tl.Total() {
		t.Fatalf("virtual stages do not partition the call: %v != %v", sum, tl.Total())
	}

	// The unfinished call is visible but not "completed".
	last := res.Timelines[len(res.Timelines)-1]
	if last.TraceID != 99 || last.Completed || last.Complete {
		t.Fatalf("unfinished call misclassified: %+v", last)
	}
	if len(last.Missing) == 0 {
		t.Fatal("unfinished call must list its missing links")
	}
}

// TestBreakdownSerializeAveragesSampledCalls: lakeLib times one marshal
// in 64, so the serialize(w) column is the mean over the calls that carry
// a timing, not diluted by the untimed ones.
func TestBreakdownSerializeAveragesSampledCalls(t *testing.T) {
	ts := make([]Timeline, 4)
	for i := range ts {
		ts[i] = Timeline{API: 3, End: 10 * time.Microsecond, Boundary: 10 * time.Microsecond, Completed: true}
	}
	ts[0].Serialize = 1500 * time.Nanosecond
	table := BreakdownTable(ts, nil)
	rows := strings.Split(strings.TrimSpace(table), "\n")
	if len(rows) != 2 {
		t.Fatalf("want a header and one row:\n%s", table)
	}
	// api, calls, total_us, route(w), serialize(w), ...
	if f := strings.Fields(rows[1]); len(f) < 5 || f[4] != "1.50" {
		t.Fatalf("serialize(w) cell = %v, want 1.50 (one timed call of 1.5us):\n%s", f, table)
	}
}

func TestBreakdownAndTailRendering(t *testing.T) {
	clock := vtime.New()
	r := New(clock, 1024)
	r.SetEnabled(true)
	for i := uint64(1); i <= 20; i++ {
		emitCall(r, clock, i, i, 3)
	}
	res := Stitch(r.Snapshot("render"))
	name := func(id uint64) string { return "cuLaunchKernel" }

	table := BreakdownTable(res.Timelines, name)
	if !strings.Contains(table, "cuLaunchKernel") || !strings.Contains(table, "boundary") {
		t.Fatalf("breakdown table malformed:\n%s", table)
	}
	tail := TailAttribution(res.Timelines, 0.99, name)
	if !strings.Contains(tail, `dominated by "boundary"`) {
		t.Fatalf("tail attribution should blame the 60us boundary stage:\n%s", tail)
	}
	chrome, err := ChromeTrace(res, name)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"traceEvents"`, `"ph": "X"`, `"cuLaunchKernel"`, `"boundary"`} {
		if !strings.Contains(string(chrome), want) {
			t.Fatalf("chrome trace missing %s:\n%.400s", want, chrome)
		}
	}
}

// TestTailAttributionNearestRank pins TailAttribution's cutoff to the
// nearest-rank rule every quantile in the stack uses: over 100 calls of
// 1..100 us, p7 cuts at the 7th call (ceil(0.07*100) without the float
// error that would make it the 8th), so 94 calls are in the tail. The rank
// must agree with telemetry.QuantileRank for every n in 1..1000 on a grid
// of q.
func TestTailAttributionNearestRank(t *testing.T) {
	ts := make([]Timeline, 100)
	for i := range ts {
		ts[i] = Timeline{TraceID: uint64(i + 1), Completed: true, End: time.Duration(i+1) * time.Microsecond}
	}
	tail := TailAttribution(ts, 0.07, nil)
	if want := "p7 cutoff 7.00us: 94 of 100 calls\n"; !strings.HasPrefix(tail, want) {
		t.Fatalf("tail header:\n%s\nwant prefix %q", tail, want)
	}
	for n := 1; n <= 1000; n++ {
		for k := 0; k <= 1000; k++ {
			q := float64(k) / 1000
			if got, want := nearestRank(q, n), telemetry.QuantileRank(q, int64(n)); int64(got) != want {
				t.Fatalf("nearestRank(%v, %d) = %d, telemetry.QuantileRank = %d", q, n, got, want)
			}
		}
	}
}

// TestSpansFold checks the span view of a stitched dump: a plain call's
// stages partition its window in the stitcher's own widths, and a batched
// flush's span opens at its oldest member's enqueue — recovered through the
// flush's seq range under its model handle — with the coalesce stage ending
// where the flush fired.
func TestSpansFold(t *testing.T) {
	clock := vtime.New()
	r := New(clock, 1024)
	r.SetEnabled(true)
	emitCall(r, clock, 1, 1, 3)

	const flush, older, younger, fn = 10, 11, 12, 5
	enqueued := clock.Now()
	r.Emit(DomainBatcher, EvEnqueue, older, 1, 0, 1, fn, 0)
	clock.Advance(30 * time.Microsecond)
	r.Emit(DomainBatcher, EvEnqueue, younger, 2, 0, 1, fn, 0)
	clock.Advance(70 * time.Microsecond)
	fired := clock.Now()
	r.Emit(DomainBatcher, EvFlushStart, flush, 1, 0, 2, 1, fn)
	emitCall(r, clock, flush, 2, 7)

	res := Stitch(r.Snapshot("spans"))
	spans := Spans(res.Timelines, func(id uint64) string { return map[uint64]string{3: "launch", 7: "batched"}[id] })
	if len(spans) != 2 || spans[0].Name != "launch" || spans[1].Name != "batched" {
		t.Fatalf("spans = %+v, want launch then batched", spans)
	}
	widths := func(sp Span) map[string]time.Duration {
		w := map[string]time.Duration{}
		for _, st := range sp.Stages {
			if st.VStart < sp.VStart || st.VEnd > sp.VEnd || st.VEnd < st.VStart {
				t.Errorf("%s: stage %s [%v, %v] escapes span [%v, %v]", sp.Name, st.Name, st.VStart, st.VEnd, sp.VStart, sp.VEnd)
			}
			w[st.Name] = st.VEnd - st.VStart
		}
		return w
	}
	tl := res.Timelines[0]
	w := widths(spans[0])
	if w["queue"] != tl.Queue || w["copy"] != tl.Copy || w["exec"] != tl.Exec || w["boundary"] != tl.Boundary {
		t.Fatalf("launch stage widths %v do not match timeline %+v", w, tl)
	}
	if _, ok := w["coalesce"]; ok || spans[0].VStart != tl.Start || spans[0].VEnd != tl.End {
		t.Fatalf("plain call span must be the call window without coalesce: %+v", spans[0])
	}
	if spans[0].Stages[0].Name != "serialize" || spans[0].Stages[0].Wall != 1500*time.Nanosecond {
		t.Fatalf("serialize must lead with its wall time: %+v", spans[0].Stages[0])
	}

	w = widths(spans[1])
	if spans[1].VStart != enqueued || w["coalesce"] != fired-enqueued {
		t.Fatalf("flush span starts %v with coalesce %v, want %v and %v (oldest enqueue to flush start)",
			spans[1].VStart, w["coalesce"], enqueued, fired-enqueued)
	}
	if spans[1].TraceID != flush || spans[1].VEnd != res.Timelines[1].End {
		t.Fatalf("flush span lost its call: %+v", spans[1])
	}
}

// TestStitchCrashBeforeExec: a dispatch whose daemon crashed before
// executing opens the queue stage but not the execution window — the
// redelivered dispatch that actually executed does.
func TestStitchCrashBeforeExec(t *testing.T) {
	clock := vtime.New()
	r := New(clock, 256)
	r.SetEnabled(true)
	const tid, seq, api = 1, 1, 3
	r.Emit(DomainKernel, EvCallStart, tid, seq, 0, api, 64, 0)
	clock.Advance(2 * time.Microsecond)
	r.Emit(DomainDaemon, EvDispatch, tid, seq, 0, api, 64, 0)
	r.Emit(DomainDaemon, EvCrash, tid, seq, 0, 1, api, 0)
	clock.Advance(40 * time.Microsecond) // backoff and restart
	r.Emit(DomainKernel, EvRetry, tid, seq, 0, 1, 0, 0)
	r.Emit(DomainDaemon, EvRestart, 0, 0, 0, 1, 0, 0)
	redelivered := clock.Now()
	r.Emit(DomainDaemon, EvDispatch, tid, seq, 0, api, 64, 0)
	clock.Advance(5 * time.Microsecond)
	r.Emit(DomainDaemon, EvExecEnd, tid, seq, 0, api, 0, 0)
	clock.Advance(60 * time.Microsecond)
	r.Emit(DomainKernel, EvCallEnd, tid, seq, 0, api, 0, uint64(60*time.Microsecond))

	res := Stitch(r.Snapshot("crash"))
	if len(res.Timelines) != 1 || res.Complete != 1 {
		t.Fatalf("timelines = %+v, want one complete call", res.Timelines)
	}
	tl := res.Timelines[0]
	if tl.ExecStartV != redelivered || tl.Exec != 5*time.Microsecond {
		t.Fatalf("exec window [%v, %v] exec %v, want it opened by the redelivery at %v and 5us long",
			tl.ExecStartV, tl.ExecEndV, tl.Exec, redelivered)
	}
	if tl.Queue != 2*time.Microsecond || tl.Other != 40*time.Microsecond || tl.Retries != 1 {
		t.Fatalf("queue %v other %v retries %d, want 2us, the 40us outage, 1", tl.Queue, tl.Other, tl.Retries)
	}
}

// TestStitchClipsToLossHorizon: when one domain wraps, the calls older than
// its oldest surviving event are not stitched, and the calls that are give
// exactly the stage means the same calls give from the unwrapped dump.
func TestStitchClipsToLossHorizon(t *testing.T) {
	clock := vtime.New()
	r := New(clock, 1024)
	r.SetEnabled(true)
	for i := uint64(1); i <= 20; i++ {
		emitCallCopy(r, clock, i, i, 3, time.Duration(i)*time.Microsecond)
	}
	full := r.Snapshot("full")

	// Wrap the GPU domain: of its 40 events (copy, exec per call) keep the
	// newest 15, so call 13 keeps its exec but loses its copy.
	wrapped := *full
	wrapped.Domains = append([]DomainDump(nil), full.Domains...)
	gpu := &wrapped.Domains[DomainGPU]
	gpu.Dropped, gpu.Events = 25, gpu.Events[25:]

	got := Stitch(&wrapped)
	if len(got.Timelines) != 7 || got.Timelines[0].TraceID != 14 || got.Complete != 7 {
		t.Fatalf("stitched %d calls from trace %d (%d complete), want calls 14..20 complete",
			len(got.Timelines), got.Timelines[0].TraceID, got.Complete)
	}
	keep := map[uint64]bool{}
	for _, tl := range got.Timelines {
		keep[tl.TraceID] = true
	}
	var matching []Timeline
	for _, tl := range Stitch(full).Timelines {
		if keep[tl.TraceID] {
			matching = append(matching, tl)
		}
	}
	if a, b := MeasureStages(got.Timelines), MeasureStages(matching); a != b {
		t.Fatalf("wrapped dump stage means %+v, unwrapped dump's matching calls %+v", a, b)
	}
}

// TestStitchFoldedFormsMatchSplit: the forms the recorder writes on the
// healthy path (the dispatch inside EvExecEnd, the launch inside EvExec,
// the route hop inside EvEnqueue) stitch to exactly the timeline their
// split forms, which fault paths and older dumps carry, stitch to.
func TestStitchFoldedFormsMatchSplit(t *testing.T) {
	const flush, member, seq, api, fn, frame = 10, 11, 4, 22, 9, 200
	record := func(folded bool) []Timeline {
		clock := vtime.New()
		r := New(clock, 256).WithShard(1, clock)
		r.SetEnabled(true)
		hop := RouteWord(2, true, 1500)
		if folded {
			r.Emit(DomainBatcher, EvEnqueue, member, 0, 0, 1, fn, hop)
		} else {
			r.Emit(DomainBatcher, EvEnqueue, member, 0, 0, 1, fn, 0)
			r.Emit(DomainRouter, EvRoute, member, 0, 0, 2, 1, 1500)
		}
		clock.Advance(100 * time.Microsecond)
		r.Emit(DomainBatcher, EvFlushStart, flush, 0, 0, 1, 1, fn)
		r.Emit(DomainKernel, EvCallStart, flush, seq, 0, api, frame, 0)
		clock.Advance(2 * time.Microsecond)
		dispatched := r.BeginExec(flush)
		if !folded {
			r.Emit(DomainDaemon, EvDispatch, flush, seq, 0, api, frame, 0)
			r.Emit(DomainGPU, EvLaunch, flush, 0, 1, fn, 3, 0)
		}
		launched := uint64(fn)
		if !folded {
			launched = 0
		}
		r.Emit(DomainGPU, EvCopy, flush, 0, 1, 64, uint64(7*time.Microsecond), 0)
		clock.Advance(12 * time.Microsecond)
		r.Emit(DomainGPU, EvExec, flush, 0, 1, uint64(5*time.Microsecond), 0, launched)
		if folded {
			r.Emit(DomainDaemon, EvExecEnd, flush, seq, 0, api, frame<<32, uint64(dispatched))
		} else {
			r.Emit(DomainDaemon, EvExecEnd, flush, seq, 0, api, 0, 0)
		}
		r.EndExec()
		clock.Advance(29 * time.Microsecond)
		r.Emit(DomainKernel, EvCallEnd, flush, seq, 0, api, 0, uint64(29*time.Microsecond))
		return Stitch(r.Snapshot("forms")).Timelines
	}
	split, folded := record(false), record(true)
	if len(folded) != 1 || !folded[0].Complete || folded[0].Routes != 1 || !folded[0].Rerouted ||
		folded[0].Route != 1500 || folded[0].Shard != 1 || folded[0].Device != 1 || folded[0].Queue != 2*time.Microsecond {
		t.Fatalf("folded forms stitched to %+v", folded)
	}
	if !reflect.DeepEqual(split, folded) {
		t.Fatalf("split and folded forms stitch differently:\nsplit  %+v\nfolded %+v", split, folded)
	}
}

// TestRouteWordRoundTrip: a route word decodes to the hop it packed, a
// decide time past its field saturates, and an unrouted enqueue carries no
// hop.
func TestRouteWordRoundTrip(t *testing.T) {
	for _, want := range []Route{
		{}, {Policy: 3, Reroute: true, DecideNs: 1}, {Policy: 63, DecideNs: 1<<56 - 1},
	} {
		e := Event{Kind: EvEnqueue, Arg2: RouteWord(want.Policy, want.Reroute, want.DecideNs)}
		if got, ok := e.Route(); !ok || got != want {
			t.Errorf("RouteWord(%+v) decodes to %+v, %v", want, got, ok)
		}
	}
	e := Event{Kind: EvEnqueue, Arg2: RouteWord(1, false, 1<<62)}
	if got, _ := e.Route(); got.DecideNs != 1<<56-1 || got.Policy != 1 || got.Reroute {
		t.Errorf("an oversized decide time gave %+v", got)
	}
	if _, ok := (Event{Kind: EvEnqueue, Arg1: 9}).Route(); ok {
		t.Error("an unrouted enqueue decoded as a hop")
	}
}
