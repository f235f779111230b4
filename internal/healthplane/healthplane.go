// Package healthplane is LAKE's live health surface: it tails the flight
// recorder's rings without disturbing the zero-allocation emit path, folds
// the events and telemetry-histogram deltas into rolling multi-window
// per-stage latency percentiles and SRE-style error-budget burn rates, and —
// when a burn threshold trips or a model is demoted for drift — captures a
// black-box incident bundle (flight dump + telemetry snapshot + SLO state)
// into a bounded ring served at /incidents.json. The paper's evaluation
// answers "where did the time go?" offline; this package answers it while
// the runtime is serving.
//
// The plane sits entirely on the read side: nothing on the call path knows
// it exists. Attach builds it over a runtime. Drift demotions are read from
// the lifecycle events on the runtime's recorder, so every lifecycle
// manager booted on the runtime is reported without being handed to the
// plane. All ingestion happens in Poll, which the laked HTTP handlers (and
// tests) drive explicitly — deterministic under the virtual clock, no
// background goroutine to leak.
package healthplane

import (
	"strconv"
	"strings"
	"sync"
	"time"

	"lakego/internal/core"
	"lakego/internal/flightrec"
	"lakego/internal/telemetry"
)

const (
	// tickLen is the virtual-time bucketing granularity; the three rolling
	// windows are 1, shortTicks and longTicks ticks (1s/30s/5m).
	tickLen    = time.Second
	shortTicks = 30
	longTicks  = 300
	// fastBurn and slowBurn are the burn-rate alert thresholds (SRE
	// workbook: 14.4 pages immediately, 6 pages within hours).
	fastBurn = 14.4
	slowBurn = 6
	// maxIncidents bounds the retained incident ring.
	maxIncidents = 8
)

// ShardHealth is the runtime's liveness as the readiness probe sees it.
type ShardHealth struct {
	State   string `json:"state"`
	Ready   bool   `json:"ready"`
	Handled int64  `json:"handled"`
}

// Plane is the health plane for one runtime: build it with Attach, then
// drive it with Poll. All methods are safe for concurrent use.
type Plane struct {
	bounds    []int64
	wallStart time.Time

	// The sources, fixed at construction.
	now        func() time.Duration
	rec        *flightrec.Recorder
	snapFn     func() telemetry.Snapshot
	shardProbe func() []ShardHealth

	mu          sync.Mutex
	cursor      flightrec.TailCursor
	tailBuf     []flightrec.Event
	tailSkipped uint64
	prevCum     map[string][]int64
	stages      map[string]*stageSeries
	objs        []*objState
	// drift is the detail of the newest drift event tailed since the last
	// Poll captured one; empty when there is none.
	drift       string
	incidents   []*Incident
	incidentSeq int
	polls       int64
}

// newPlane builds a plane over its four sources: the virtual clock, the
// recorder it tails, the telemetry it diffs and the readiness probe.
func newPlane(now func() time.Duration, rec *flightrec.Recorder, snapFn func() telemetry.Snapshot, probe func() []ShardHealth) *Plane {
	p := &Plane{
		bounds:     telemetry.DefaultLatencyBuckets(),
		wallStart:  time.Now(),
		now:        now,
		rec:        rec,
		snapFn:     snapFn,
		shardProbe: probe,
		tailBuf:    make([]flightrec.Event, 4096),
		prevCum:    map[string][]int64{},
		stages:     map[string]*stageSeries{},
	}
	for _, o := range objectives {
		p.objs = append(p.objs, &objState{obj: o, ring: make([]objTick, longTicks)})
	}
	return p
}

// Attach builds the plane over one runtime: it tails the runtime's flight
// recorder on its clock and feeds the SLO engine from its telemetry. The
// readiness probe reports the runtime's one shard, ready until its lakeD
// supervisor gives the daemon up (a runtime booted without faults has no
// supervisor and is always ready).
func Attach(rt *core.Runtime) *Plane {
	return newPlane(rt.Clock().Now, rt.FlightRecorder(), rt.Telemetry().Snapshot, func() []ShardHealth {
		sh := ShardHealth{State: "Healthy", Ready: true, Handled: rt.Daemon().Handled()}
		if sup := rt.Supervisor(); sup != nil {
			st := sup.State()
			sh.State, sh.Ready = st.String(), st != core.StateDead
		}
		return []ShardHealth{sh}
	})
}

// UptimeVNS returns virtual nanoseconds since the clock started.
func (p *Plane) UptimeVNS() int64 { return int64(p.now()) }

// UptimeSeconds returns wall seconds since the plane was built.
func (p *Plane) UptimeSeconds() int64 {
	return int64(time.Since(p.wallStart) / time.Second)
}

// Poll ingests everything new since the last call — tailed flight events
// and telemetry histogram deltas — re-evaluates burn-rate alerts, and
// captures incident bundles for any rising edge and for a drift demotion.
// Returns the incidents captured by this call (usually none).
func (p *Plane) Poll() []*Incident {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.polls++
	tick := int64(p.now() / tickLen)

	p.ingestTailLocked()
	p.ingestHistogramsLocked(tick)

	var captured []*Incident
	for _, o := range p.evaluate(tick) {
		captured = append(captured, p.captureLocked(o.severity,
			"objective "+o.obj.name+" ("+o.obj.stage+") burning error budget", o.obj.name))
	}
	if p.drift != "" {
		captured = append(captured, p.captureLocked("drift-demotion", p.drift, ""))
		p.drift = ""
	}
	return captured
}

// ingestTailLocked drains the recorder rings into the engine.
func (p *Plane) ingestTailLocked() {
	for {
		n, next, skipped := p.rec.TailInto(p.cursor, p.tailBuf)
		p.cursor = next
		p.tailSkipped += skipped
		for _, e := range p.tailBuf[:n] {
			p.ingestEventLocked(e)
		}
		if n < len(p.tailBuf) {
			return
		}
	}
}

func (p *Plane) ingestEventLocked(e flightrec.Event) {
	tick := int64(e.VTime / tickLen)
	switch e.Kind {
	case flightrec.EvExec:
		p.sample(StageGPUExec, e.Shard, int64(e.Arg0), tick, 1)
		p.sample(StageGPUQueue, e.Shard, int64(e.Arg1), tick, 1)
	case flightrec.EvCopy:
		p.sample(StageCopy, e.Shard, int64(e.Arg1), tick, 1)
	case flightrec.EvCallEnd:
		if e.Arg2 != 0 { // the boundary round trip a completed exchange charged
			p.sample(StageBoundary, e.Shard, int64(e.Arg2), tick, 1)
		}
		if e.Arg1 != 0 { // non-Success result burns the call budget outright
			p.fail(StageCall, tick, 1)
		}
	case flightrec.EvQueueFull:
		p.fail(StageBoundary, tick, 1)
	case flightrec.EvModelSwap:
		if e.Arg2 == flightrec.SwapDemote {
			p.drift = "model demoted for drift (serving version " + strconv.FormatUint(e.Arg0, 10) + ")"
		}
	case flightrec.EvFallback:
		if e.Arg0 == 1 {
			p.drift = "model exhausted versions, routing on heuristic fallback"
		}
	}
}

// ingestHistogramsLocked turns cumulative-bucket deltas of the mapped
// latency families into engine samples valued at the bucket upper bound,
// attributed to the poll's current tick.
func (p *Plane) ingestHistogramsLocked(tick int64) {
	snap := p.snapFn()
	for name, hs := range snap.Histograms {
		family, labels := telemetry.SplitName(name)
		stage, ok := histStages[family]
		if !ok {
			continue
		}
		shard := shardFromLabels(labels)
		cum := make([]int64, len(hs.Buckets))
		for i, b := range hs.Buckets {
			cum[i] = b.Cumulative
		}
		prev := p.prevCum[name]
		var prevAt int64
		for i, b := range hs.Buckets {
			// Per-bucket (non-cumulative) delta since the previous poll.
			cur := b.Cumulative - prevAt
			prevAt = b.Cumulative
			if prev != nil {
				var prevPrev int64
				if i > 0 {
					prevPrev = prev[i-1]
				}
				cur -= prev[i] - prevPrev
			}
			if cur <= 0 {
				continue
			}
			lat := int64(0)
			if i < len(p.bounds) {
				lat = p.bounds[i]
			} else if len(p.bounds) > 0 {
				lat = 2 * p.bounds[len(p.bounds)-1] // +Inf bucket: over budget for any objective
			}
			p.sample(stage, shard, lat, tick, cur)
		}
		p.prevCum[name] = cum
	}
}

// shardFromLabels extracts a shard="N" pair; 0 when absent.
func shardFromLabels(labels string) uint16 {
	_, rest, ok := strings.Cut(labels, `shard="`)
	if !ok {
		return 0
	}
	digits, _, _ := strings.Cut(rest, `"`)
	n, _ := strconv.ParseUint(digits, 10, 16)
	return uint16(n)
}

// SLO polls and returns the current snapshot.
func (p *Plane) SLO() *SLOSnapshot {
	p.Poll()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sloLocked(int64(p.now() / tickLen))
}

// Ready reports whether every shard is serving, with the per-shard detail.
func (p *Plane) Ready() (bool, []ShardHealth) {
	shards := p.shardProbe()
	ready := true
	for _, sh := range shards {
		if !sh.Ready {
			ready = false
		}
	}
	return ready, shards
}
