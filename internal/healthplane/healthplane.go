// Package healthplane is LAKE's live health surface: it tails the flight
// recorder's rings without disturbing the zero-allocation emit path, folds
// the events and telemetry-histogram deltas into rolling multi-window
// per-stage/per-shard latency percentiles and SRE-style error-budget burn
// rates, and — when a burn threshold trips, a shard stalls, or a model is
// demoted for drift — captures a black-box incident bundle (flight dump +
// merged telemetry snapshot + model registry state) into a bounded ring
// served at /incidents.json. The paper's evaluation answers "where did the
// time go?" offline; this package answers it while the fleet is serving.
//
// The plane sits entirely on the read side: nothing on the call path knows
// it exists. Attach builds one over a runtime and AttachFleet one over a
// fleet; Watch adds each lifecycle manager it should report. All ingestion
// happens in Poll, which the laked HTTP handlers (and tests) drive
// explicitly — deterministic under the virtual clock, no background
// goroutine to leak.
package healthplane

import (
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lakego/internal/core"
	"lakego/internal/fleet"
	"lakego/internal/flightrec"
	"lakego/internal/lifecycle"
	"lakego/internal/telemetry"
)

// Config tunes the plane. Zero values take the defaults below.
type Config struct {
	// Tick is the virtual-time bucketing granularity; the three rolling
	// windows are 1, ShortTicks and LongTicks ticks (1s/30s/5m by default).
	// Micro-scale simulations (lakeload, tests) shrink Tick to match their
	// compressed virtual timelines.
	Tick       time.Duration
	ShortTicks int
	LongTicks  int
	// Objectives defaults to DefaultObjectives.
	Objectives []Objective
}

const (
	// fastBurn and slowBurn are the burn-rate alert thresholds (SRE
	// workbook: 14.4 pages immediately, 6 pages within hours).
	fastBurn = 14.4
	slowBurn = 6
	// maxIncidents bounds the retained incident ring.
	maxIncidents = 8
	// stallPolls is how many consecutive Polls a shard may show outstanding
	// work with no completion progress before the watchdog trips.
	stallPolls = 3
)

func (c *Config) fillDefaults() {
	if c.Tick <= 0 {
		c.Tick = time.Second
	}
	if c.ShortTicks <= 0 {
		c.ShortTicks = 30
	}
	if c.LongTicks <= 0 {
		c.LongTicks = 300
	}
	if c.LongTicks < c.ShortTicks {
		c.LongTicks = c.ShortTicks
	}
	if len(c.Objectives) == 0 {
		c.Objectives = DefaultObjectives()
	}
}

// ShardHealth is one shard's liveness as seen by the readiness probe and
// the stall watchdog.
type ShardHealth struct {
	Ordinal     int    `json:"ordinal"`
	State       string `json:"state"`
	Ready       bool   `json:"ready"`
	Outstanding int64  `json:"outstanding"`
	Handled     int64  `json:"handled"`
}

type stallState struct {
	lastHandled int64
	polls       int
	tripped     bool
}

// Plane is the health plane for one runtime or fleet: build it with Attach
// or AttachFleet, then drive it with Poll. All methods are safe for
// concurrent use.
type Plane struct {
	cfg    Config
	bounds []int64

	wallStart time.Time

	mu          sync.Mutex
	rec         *flightrec.Recorder
	cursor      flightrec.TailCursor
	tailBuf     []flightrec.Event
	tailSkipped uint64
	now         func() time.Duration
	snapFn      func() telemetry.Snapshot
	prevCum     map[string][]int64
	shardProbe  func() []ShardHealth
	models      []*lifecycle.Manager
	prevDemote  map[string]uint64
	prevFall    map[string]bool
	stages      map[string]*stageSeries
	objs        []*objState
	stalls      map[int]*stallState
	incidents   []*Incident
	incidentSeq int
	polls       int64

	// demotePing is flipped by the lifecycle demotion hook Watch installs
	// (it runs under the manager's mutex and must not call back into the
	// plane); the next Poll consumes it. Purely a freshness signal — capture
	// itself is driven by the demotion-counter delta.
	demotePing atomic.Bool
}

// newPlane builds a plane with no sources: no recorder to tail, no
// telemetry, no shard probe (trivially ready). Attach and AttachFleet wire
// the sources in.
func newPlane(cfg Config) *Plane {
	cfg.fillDefaults()
	p := &Plane{
		cfg:        cfg,
		bounds:     telemetry.DefaultLatencyBuckets(),
		wallStart:  time.Now(),
		tailBuf:    make([]flightrec.Event, 4096),
		prevCum:    map[string][]int64{},
		prevDemote: map[string]uint64{},
		prevFall:   map[string]bool{},
		stages:     map[string]*stageSeries{},
		stalls:     map[int]*stallState{},
	}
	for _, o := range cfg.Objectives {
		p.objs = append(p.objs, &objState{obj: o, ring: make([]objTick, cfg.LongTicks)})
	}
	return p
}

// Attach builds the plane over one runtime: it tails the runtime's flight
// recorder on its clock and feeds the SLO engine from its telemetry. The
// shard probe reports one shard, ready until its lakeD supervisor gives
// the daemon up (a runtime booted without faults has no supervisor and is
// trivially ready);
// completion outstanding is unknown here, so the stall watchdog only arms
// on fleets.
func Attach(rt *core.Runtime, cfg Config) *Plane {
	p := newPlane(cfg)
	p.now = rt.Clock().Now
	p.rec = rt.FlightRecorder()
	p.snapFn = rt.Telemetry().Snapshot
	p.shardProbe = func() []ShardHealth {
		sh := ShardHealth{State: "Healthy", Ready: true, Handled: rt.Daemon().Handled()}
		if sup := rt.Supervisor(); sup != nil {
			st := sup.State()
			sh.State, sh.Ready = st.String(), st != core.StateDead
		}
		return []ShardHealth{sh}
	}
	return p
}

// AttachFleet builds the plane over a whole fleet: it tails the shared root
// flight recorder (every shard's events, shard-stamped) on the fleet's
// critical-path clock and feeds the SLO engine from the merged per-shard
// telemetry. A shard is ready while it is Active for the router and its
// lakeD supervisor (when armed) has not given the daemon up. Outstanding
// counts routed in-flight requests, so the stall watchdog is live here.
func AttachFleet(f *fleet.Fleet, cfg Config) *Plane {
	p := newPlane(cfg)
	p.now = f.VirtualElapsed
	p.rec = f.Recorder()
	p.snapFn = f.Snapshot
	p.shardProbe = func() []ShardHealth {
		out := make([]ShardHealth, 0, len(f.Shards()))
		for _, s := range f.Shards() {
			sh := ShardHealth{
				Ordinal:     s.Ordinal(),
				State:       s.State().String(),
				Ready:       s.State() == fleet.Active,
				Outstanding: s.Outstanding(),
				Handled:     s.Runtime().Daemon().Handled(),
			}
			if sup := s.Runtime().Supervisor(); sup != nil {
				if st := sup.State(); st == core.StateDead {
					sh.Ready = false
					sh.State += "/" + st.String()
				}
			}
			out = append(out, sh)
		}
		return out
	}
	return p
}

// Watch adds a lifecycle manager to the plane: it feeds /models.json, the
// SLO models section and drift-demotion incident capture. The plane keeps
// one manager per model name, listed in name order: watching a manager again
// is a no-op, and a new manager for a watched name replaces the old one and
// starts its demotion baseline afresh.
func (p *Plane) Watch(m *lifecycle.Manager) {
	p.mu.Lock()
	defer p.mu.Unlock()
	model := m.Model()
	i, found := slices.BinarySearchFunc(p.models, model, func(w *lifecycle.Manager, model string) int {
		return strings.Compare(w.Model(), model)
	})
	switch {
	case found && p.models[i] == m:
		return
	case found:
		p.models[i] = m
		delete(p.prevDemote, model)
		delete(p.prevFall, model)
	default:
		p.models = slices.Insert(p.models, i, m)
	}
	m.SetDemotionHook(func(string, bool) { p.demotePing.Store(true) })
}

func (p *Plane) vnow() time.Duration {
	if p.now == nil {
		return 0
	}
	return p.now()
}

// UptimeVNS returns virtual nanoseconds since the clock started.
func (p *Plane) UptimeVNS() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int64(p.vnow())
}

// UptimeSeconds returns wall seconds since the plane was built.
func (p *Plane) UptimeSeconds() int64 {
	return int64(time.Since(p.wallStart) / time.Second)
}

// Poll ingests everything new since the last call — tailed flight events,
// telemetry histogram deltas, shard liveness, model lifecycle state —
// re-evaluates burn-rate alerts and the stall watchdog, and captures
// incident bundles for any rising edge. Returns the incidents captured by
// this call (usually none).
func (p *Plane) Poll() []*Incident {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.polls++
	p.demotePing.Store(false)
	tick := int64(p.vnow() / p.cfg.Tick)

	p.ingestTailLocked()
	p.ingestHistogramsLocked(tick)

	var captured []*Incident
	for _, o := range p.evaluate(tick) {
		captured = append(captured, p.captureLocked(o.severity,
			"objective "+o.obj.Name+" ("+o.obj.Stage+") burning error budget", o.obj.Name))
	}
	captured = append(captured, p.watchdogLocked()...)
	captured = append(captured, p.demotionsLocked()...)
	return captured
}

// ingestTailLocked drains the recorder rings into the engine.
func (p *Plane) ingestTailLocked() {
	if p.rec == nil {
		return
	}
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
	tick := int64(e.VTime / p.cfg.Tick)
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
	}
}

// ingestHistogramsLocked turns cumulative-bucket deltas of the mapped
// latency families into engine samples valued at the bucket upper bound,
// attributed to the poll's current tick.
func (p *Plane) ingestHistogramsLocked(tick int64) {
	if p.snapFn == nil {
		return
	}
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

// watchdogLocked trips when a shard holds outstanding work across
// stallPolls consecutive polls without completing anything — the
// completion-progress stall a dead daemon or wedged ring produces.
func (p *Plane) watchdogLocked() []*Incident {
	if p.shardProbe == nil {
		return nil
	}
	var captured []*Incident
	for _, sh := range p.shardProbe() {
		st, ok := p.stalls[sh.Ordinal]
		if !ok {
			st = &stallState{lastHandled: sh.Handled}
			p.stalls[sh.Ordinal] = st
			continue
		}
		if sh.Outstanding > 0 && sh.Handled == st.lastHandled {
			st.polls++
			if st.polls >= stallPolls && !st.tripped {
				st.tripped = true
				captured = append(captured, p.captureLocked("watchdog-stall",
					"shard "+shardKey(uint16(sh.Ordinal))+" has outstanding work with no completion progress", ""))
			}
		} else {
			st.polls = 0
			st.tripped = false
		}
		st.lastHandled = sh.Handled
	}
	return captured
}

// demotionsLocked captures an incident when a model's demotion count rises
// or it newly enters heuristic fallback since the previous poll.
func (p *Plane) demotionsLocked() []*Incident {
	var captured []*Incident
	for _, m := range p.models {
		st := m.Stats()
		model := m.Model()
		if prev, ok := p.prevDemote[model]; ok && st.Demotions > prev {
			captured = append(captured, p.captureLocked("drift-demotion",
				"model "+model+" demoted for drift (serving seq now "+strconv.FormatUint(st.ServingSeq, 10)+")", ""))
		} else if fell := st.Fallback && !p.prevFall[model]; fell && ok {
			captured = append(captured, p.captureLocked("drift-demotion",
				"model "+model+" exhausted versions, routing on heuristic fallback", ""))
		}
		p.prevDemote[model] = st.Demotions
		p.prevFall[model] = st.Fallback
	}
	return captured
}

// modelStatus renders the SLO models section. Callers hold p.mu.
func (p *Plane) modelStatus() []ModelStatus {
	var out []ModelStatus
	for _, m := range p.models {
		st := m.Stats()
		out = append(out, ModelStatus{
			Model:        m.Model(),
			ServingSeq:   st.ServingSeq,
			Versions:     st.Versions,
			Healthy:      m.Healthy(),
			Fallback:     st.Fallback,
			Swaps:        st.Swaps,
			Demotions:    st.Demotions,
			DriftAlarms:  st.DriftAlarms,
			LiveAccuracy: st.LiveAccuracy,
			Baseline:     st.Baseline,
		})
	}
	return out
}

// SLO polls and returns the current snapshot.
func (p *Plane) SLO() *SLOSnapshot {
	p.Poll()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sloLocked(int64(p.vnow() / p.cfg.Tick))
}

// Ready reports whether every shard is serving, with the per-shard detail.
// A plane without a probe is trivially ready (single-runtime laked without
// a supervisor).
func (p *Plane) Ready() (bool, []ShardHealth) {
	p.mu.Lock()
	probe := p.shardProbe
	p.mu.Unlock()
	if probe == nil {
		return true, nil
	}
	shards := probe()
	ready := true
	for _, sh := range shards {
		if !sh.Ready {
			ready = false
		}
	}
	return ready, shards
}
