package healthplane

import (
	"slices"
	"strconv"
	"strings"
	"time"

	"lakego/internal/telemetry"
)

// Stage keys for the latency series the SLO engine tracks. Event-fed stages
// (boundary, gpu_exec, gpu_queue, copy) are attributed to the virtual tick
// the event was stamped in; histogram-fed stages (call, gpu_item, cpu_item,
// batch_queue) are derived from cumulative-histogram deltas between polls
// and land in the tick current at poll time.
const (
	StageCall       = "call"
	StageBoundary   = "boundary"
	StageGPUExec    = "gpu_exec"
	StageGPUQueue   = "gpu_queue"
	StageCopy       = "copy"
	StageGPUItem    = "gpu_item"
	StageCPUItem    = "cpu_item"
	StageBatchQueue = "batch_queue"
)

// histStages maps telemetry histogram families to engine stages.
var histStages = map[string]string{
	"lake_lib_call_latency_ns":     StageCall,
	"lake_batcher_queue_delay_ns":  StageBatchQueue,
	telemetry.MetricGPUItemLatency: StageGPUItem,
	telemetry.MetricCPUItemLatency: StageCPUItem,
}

// objective is one latency SLO: samples of stage faster than budget are
// good, the rest (and stage errors) burn the error budget 1-target.
type objective struct {
	name   string
	stage  string
	budget time.Duration
	target float64
}

// objectives covers the two ends of the remoted path: end-to-end call
// latency and the boundary crossing itself.
var objectives = []objective{
	{name: "calls", stage: StageCall, budget: 5 * time.Millisecond, target: 0.999},
	{name: "boundary", stage: StageBoundary, budget: time.Millisecond, target: 0.99},
}

// tickBucket is one virtual-time tick of one stage series: a non-cumulative
// latency histogram. Generation-checked: the ring index is tick%longTicks
// and a stale tick number means the slot belongs to a lapped window and
// must be zeroed before reuse.
type tickBucket struct {
	tick   int64
	counts []int64 // len(bounds)+1, +Inf last
	total  int64
	sum    int64
}

// stageSeries is the latency history of one (stage, shard) pair over the
// last longTicks virtual ticks.
type stageSeries struct {
	stage string
	shard uint16
	ring  []tickBucket
}

// objTick is one tick of one objective's good/bad tally.
type objTick struct {
	tick      int64
	good, bad int64
}

// objState is an objective plus its rolling budget tally and alert latch.
// One breach episode fires one incident: inAlert latches on the rising
// edge and re-arms only when both burn conditions clear.
type objState struct {
	obj      objective
	ring     []objTick
	inAlert  bool
	severity string // "fast-burn" or "slow-burn" while in alert
}

func (p *Plane) series(stage string, shard uint16) *stageSeries {
	key := stage + "|" + shardKey(shard)
	s, ok := p.stages[key]
	if !ok {
		s = &stageSeries{stage: stage, shard: shard, ring: make([]tickBucket, longTicks)}
		p.stages[key] = s
	}
	return s
}

func shardKey(shard uint16) string { return strconv.Itoa(int(shard)) }

// slot returns the tick's bucket in the ring, zeroing a lapped slot.
func (p *Plane) slot(ring []tickBucket, tick int64) *tickBucket {
	b := &ring[tick%int64(len(ring))]
	// A zero-value slot has tick 0, which a real tick 0 must still claim —
	// hence the counts==nil check alongside the generation mismatch.
	if b.tick != tick || b.counts == nil {
		if b.counts == nil {
			b.counts = make([]int64, len(p.bounds)+1)
		} else {
			for i := range b.counts {
				b.counts[i] = 0
			}
		}
		b.tick = tick
		b.total = 0
		b.sum = 0
	}
	return b
}

func (p *Plane) objSlot(o *objState, tick int64) *objTick {
	t := &o.ring[tick%int64(len(o.ring))]
	if t.tick != tick {
		t.tick = tick
		t.good = 0
		t.bad = 0
	}
	return t
}

// sample records n observations of lat virtual-ns at stage/shard in tick,
// and charges every objective watching the stage.
func (p *Plane) sample(stage string, shard uint16, lat int64, tick int64, n int64) {
	if n <= 0 {
		return
	}
	s := p.series(stage, shard)
	b := p.slot(s.ring, tick)
	i := 0
	for i < len(p.bounds) && lat > p.bounds[i] {
		i++
	}
	b.counts[i] += n
	b.total += n
	b.sum += lat * n
	for _, o := range p.objs {
		if o.obj.stage != stage {
			continue
		}
		t := p.objSlot(o, tick)
		if lat <= int64(o.obj.budget) {
			t.good += n
		} else {
			t.bad += n
		}
	}
}

// fail charges n outright failures (errors, drops) to every objective
// watching the stage — a failed call burns budget at any latency.
func (p *Plane) fail(stage string, tick int64, n int64) {
	if n <= 0 {
		return
	}
	for _, o := range p.objs {
		if o.obj.stage != stage {
			continue
		}
		p.objSlot(o, tick).bad += n
	}
}

// windowTally sums an objective's good/bad over the trailing w ticks ending
// at tick now.
func windowTally(o *objState, now int64, w int) (good, bad int64) {
	if w > len(o.ring) {
		w = len(o.ring)
	}
	for t := now - int64(w) + 1; t <= now; t++ {
		if t < 0 {
			continue
		}
		s := &o.ring[t%int64(len(o.ring))]
		if s.tick == t {
			good += s.good
			bad += s.bad
		}
	}
	return good, bad
}

// burnRate is the SRE-workbook burn rate: the fraction of requests failing
// the objective divided by the failure fraction the target budgets for. A
// burn of 1 exhausts the error budget exactly at the objective horizon;
// 14.4 exhausts a 30-day budget in 2 days. Windows with no traffic burn 0.
func burnRate(good, bad int64, target float64) float64 {
	total := good + bad
	if total == 0 {
		return 0
	}
	budget := 1 - target
	if budget <= 0 {
		budget = 1e-9
	}
	return (float64(bad) / float64(total)) / budget
}

// evaluate updates every objective's burn state for the tick and returns
// newly tripped alerts (rising edges only — one per breach episode).
func (p *Plane) evaluate(now int64) []*objState {
	var tripped []*objState
	for _, o := range p.objs {
		g1, b1 := windowTally(o, now, 1)
		gs, bs := windowTally(o, now, shortTicks)
		gl, bl := windowTally(o, now, longTicks)
		burn1 := burnRate(g1, b1, o.obj.target)
		burnS := burnRate(gs, bs, o.obj.target)
		burnL := burnRate(gl, bl, o.obj.target)
		// Two-window alerting: the long window proves sustained burn, the
		// short one proves it is still happening (no alerts on stale spikes).
		fast := burnS >= fastBurn && burn1 >= fastBurn
		slow := burnL >= slowBurn && burnS >= slowBurn
		switch {
		case (fast || slow) && !o.inAlert:
			o.inAlert = true
			if fast {
				o.severity = "fast-burn"
			} else {
				o.severity = "slow-burn"
			}
			tripped = append(tripped, o)
		case !fast && !slow && o.inAlert:
			o.inAlert = false
			o.severity = ""
		}
	}
	return tripped
}

// WindowStats is one trailing window of an objective's budget tally.
type WindowStats struct {
	Name       string  `json:"window"`
	Ticks      int     `json:"ticks"`
	Good       int64   `json:"good"`
	Bad        int64   `json:"bad"`
	Attainment float64 `json:"attainment"`
	BurnRate   float64 `json:"burn_rate"`
}

// ObjectiveStatus is one objective's live burn state.
type ObjectiveStatus struct {
	Name     string        `json:"name"`
	Stage    string        `json:"stage"`
	BudgetNS int64         `json:"budget_ns"`
	Target   float64       `json:"target"`
	Windows  []WindowStats `json:"windows"`
	InAlert  bool          `json:"in_alert"`
	Severity string        `json:"severity,omitempty"`
}

// LatencyWindow is one trailing window of one stage's latency distribution.
type LatencyWindow struct {
	Name  string `json:"window"`
	Count int64  `json:"count"`
	SumNS int64  `json:"sum_ns"`
	P50   int64  `json:"p50_ns"`
	P99   int64  `json:"p99_ns"`
	P999  int64  `json:"p999_ns"`
}

// StageStatus is one (stage, shard) latency series; Shard "*" aggregates
// all shards of the stage.
type StageStatus struct {
	Stage   string          `json:"stage"`
	Shard   string          `json:"shard"`
	Windows []LatencyWindow `json:"windows"`
}

// SLOSnapshot is the /slo.json payload.
type SLOSnapshot struct {
	VNowNS     int64             `json:"vnow_ns"`
	Tick       int64             `json:"tick"`
	TickNS     int64             `json:"tick_ns"`
	Skipped    uint64            `json:"tail_skipped"`
	Objectives []ObjectiveStatus `json:"objectives"`
	Stages     []StageStatus     `json:"stages"`
	Incidents  int               `json:"incidents"`
}

// windowSpec is the three trailing windows (1 tick, short, long) with
// their human names.
var windowSpec = [3]struct {
	name  string
	ticks int
}{
	{tickLen.String(), 1},
	{(shortTicks * tickLen).String(), shortTicks},
	{(longTicks * tickLen).String(), longTicks},
}

// sloLocked assembles the snapshot; the caller holds p.mu.
func (p *Plane) sloLocked(now int64) *SLOSnapshot {
	snap := &SLOSnapshot{
		VNowNS:    int64(p.now()),
		Tick:      now,
		TickNS:    int64(tickLen),
		Skipped:   p.tailSkipped,
		Incidents: len(p.incidents),
	}
	for _, o := range p.objs {
		st := ObjectiveStatus{
			Name:     o.obj.name,
			Stage:    o.obj.stage,
			BudgetNS: int64(o.obj.budget),
			Target:   o.obj.target,
			InAlert:  o.inAlert,
			Severity: o.severity,
		}
		for _, w := range windowSpec {
			good, bad := windowTally(o, now, w.ticks)
			ws := WindowStats{
				Name:     w.name,
				Ticks:    w.ticks,
				Good:     good,
				Bad:      bad,
				BurnRate: burnRate(good, bad, o.obj.target),
			}
			if total := good + bad; total > 0 {
				ws.Attainment = float64(good) / float64(total)
			}
			st.Windows = append(st.Windows, ws)
		}
		snap.Objectives = append(snap.Objectives, st)
	}
	snap.Stages = p.stageStatusLocked(now)
	return snap
}

// stageStatusLocked renders per-(stage,shard) windows plus a "*" aggregate
// per stage, in a stable order.
func (p *Plane) stageStatusLocked(now int64) []StageStatus {
	type agg struct {
		counts [3][]int64
		total  [3]int64
		sum    [3]int64
	}
	perKey := map[string]*agg{}
	var order []string
	add := func(key string, wi int, b *tickBucket) {
		a, ok := perKey[key]
		if !ok {
			a = &agg{}
			for i := range a.counts {
				a.counts[i] = make([]int64, len(p.bounds)+1)
			}
			perKey[key] = a
			order = append(order, key)
		}
		for i, c := range b.counts {
			a.counts[wi][i] += c
		}
		a.total[wi] += b.total
		a.sum[wi] += b.sum
	}
	for _, key := range sortedStageKeys(p.stages) {
		s := p.stages[key]
		for wi, w := range windowSpec {
			for t := now - int64(w.ticks) + 1; t <= now; t++ {
				if t < 0 {
					continue
				}
				b := &s.ring[t%int64(len(s.ring))]
				if b.tick != t || b.total == 0 {
					continue
				}
				add(s.stage+"|"+shardKey(s.shard), wi, b)
				add(s.stage+"|*", wi, b)
			}
		}
	}
	var out []StageStatus
	for _, key := range order {
		a := perKey[key]
		stage, shard, _ := strings.Cut(key, "|")
		st := StageStatus{Stage: stage, Shard: shard}
		for wi, w := range windowSpec {
			st.Windows = append(st.Windows, LatencyWindow{
				Name:  w.name,
				Count: a.total[wi],
				SumNS: a.sum[wi],
				P50:   quantileFromBuckets(p.bounds, a.counts[wi], 0.50),
				P99:   quantileFromBuckets(p.bounds, a.counts[wi], 0.99),
				P999:  quantileFromBuckets(p.bounds, a.counts[wi], 0.999),
			})
		}
		out = append(out, st)
	}
	return out
}

func sortedStageKeys(m map[string]*stageSeries) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// quantileFromBuckets is telemetry's bucket-quantile estimate over a plain
// counts slice (the engine's tick buckets are not atomic histograms): the
// bound of the bucket holding telemetry.QuantileRank, the rank
// Histogram.Quantile reads.
func quantileFromBuckets(bounds []int64, counts []int64, q float64) int64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	if n == 0 || len(bounds) == 0 {
		return 0
	}
	target := telemetry.QuantileRank(q, n)
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= target {
			if i < len(bounds) {
				return bounds[i]
			}
			return bounds[len(bounds)-1]
		}
	}
	return bounds[len(bounds)-1]
}
