package flightrec

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Timeline is one remoted call stitched back together across domains from
// its trace ID: client serialize → boundary crossing → daemon queue → exec
// → copy → response. Virtual durations unless noted.
type Timeline struct {
	TraceID uint64
	Seq     uint64
	API     uint64 // remoting API id from the call events
	Device  int    // executing device ordinal, -1 if no GPU work
	Shard   int    // fleet shard that executed the call (0 outside a fleet)
	Result  uint64 // remoting Result code from EvCallEnd
	Retries int

	// Router hop (fleet runs only): how many placement decisions routed
	// this call and whether any was a migration re-route.
	Routes   int
	Rerouted bool

	Start, End time.Duration // EvCallStart .. EvCallEnd
	ExecStartV time.Duration
	ExecEndV   time.Duration

	// The Fig 5/6 stages. Serialize and Route are wall time (marshal and
	// placement cost no virtual time); the rest partition the call's
	// virtual duration.
	Serialize time.Duration // wall ns spent marshaling
	Route     time.Duration // wall ns spent on router placement decisions
	Queue     time.Duration // call start until lakeD decoded it (incl. injected delay)
	Exec      time.Duration // daemon execution window minus transfer time
	Copy      time.Duration // transfer time charged inside the execution window
	Boundary  time.Duration // modeled channel round-trip cost
	Other     time.Duration // remainder: backoff, restart cost, response handling

	// Batched-flush calls only: the window the batcher spent forming the
	// batch, from the oldest member's EvEnqueue (CoalesceStartV) to
	// EvFlushStart. It precedes Start — the remoted call is issued after the
	// flush fires — so it is not part of Total.
	CoalesceStartV time.Duration
	Coalesce       time.Duration

	Completed bool // the client observed a response (EvCallEnd present)
	Complete  bool // every cross-domain link was recovered
	Missing   []string
}

// Total is the call's virtual duration.
func (t Timeline) Total() time.Duration { return t.End - t.Start }

// StitchResult is the reconstruction of a dump.
type StitchResult struct {
	Dump      *Dump
	Timelines []Timeline // calls (trace IDs with an EvCallStart) inside the loss horizon, by Start
	Completed int        // timelines whose call finished
	Complete  int        // completed timelines with the full chain recovered
	Dropped   uint64     // events the recorder reported lost
}

// chain lists the links a completed call must have for its timeline to
// count as complete: the four events a healthy remoted call emits.
var chain = []struct {
	name string
	kind Kind
}{
	{"call_start", EvCallStart},
	{"dispatch", EvDispatch},
	{"exec_end", EvExecEnd},
	{"call_end", EvCallEnd},
}

// Stitch groups a dump's events by trace ID and rebuilds per-call
// cross-domain timelines.
//
// Domains wrap at different rates (a remoted call costs two kernel and two
// daemon events but can cost many GPU ones), so a call can outlive its
// links in a busier domain. A domain that dropped events knows nothing
// older than its oldest surviving event on each shard; a call that started
// at or before the newest such horizon on its shard is not stitched, rather
// than stitched with stages missing. (At the horizon instant itself the
// domain may have dropped some of that instant's events.)
func Stitch(d *Dump) *StitchResult {
	horizon := lossHorizons(d)
	byTID := make(map[uint64][]Event)
	// Router and enqueue events ride member-request trace IDs (the fleet
	// routes requests, the batcher queues them, then flushes them under a
	// fresh flush ID). A flush takes a FIFO prefix of one model's queue, so
	// its members are the seqs [Seq, Seq+a0) enqueued on its shard under its
	// model handle: that range re-homes each route hop and enqueue onto the
	// remoted call it coalesced into — the stitched timeline then shows the
	// hop and the coalesce window.
	memberTID := make(map[[3]uint64]uint64) // (shard, model handle, seq) -> member
	var flushes []Event
	for _, dd := range d.Domains {
		for _, e := range dd.Events {
			if e.TraceID == 0 {
				continue
			}
			byTID[e.TraceID] = append(byTID[e.TraceID], e)
			switch e.Kind {
			case EvEnqueue:
				memberTID[[3]uint64{uint64(e.Shard), e.Arg1, e.Seq}] = e.TraceID
			case EvFlushStart:
				flushes = append(flushes, e)
			}
		}
	}
	flushOf := make(map[uint64]uint64)
	for _, f := range flushes {
		for i := uint64(0); i < f.Arg0 && i < uint64(len(memberTID)); i++ { // a0 is bounded by the dump
			if tid, ok := memberTID[[3]uint64{uint64(f.Shard), f.Arg2, f.Seq + i}]; ok {
				flushOf[tid] = f.TraceID
			}
		}
	}
	for tid, ftid := range flushOf { // a member's trace ID tags only its route hop and enqueue
		if ftid != tid {
			byTID[ftid] = append(byTID[ftid], byTID[tid]...)
		}
	}
	res := &StitchResult{Dump: d, Dropped: d.TotalDropped()}
	for tid, evs := range byTID {
		tl, shard, isCall := stitchOne(tid, evs)
		if h, lost := horizon[shard]; !isCall || lost && tl.Start <= h {
			continue
		}
		res.Timelines = append(res.Timelines, tl)
		if tl.Completed {
			res.Completed++
			if tl.Complete {
				res.Complete++
			}
		}
	}
	sort.Slice(res.Timelines, func(i, j int) bool {
		a, b := res.Timelines[i], res.Timelines[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.TraceID < b.TraceID
	})
	return res
}

// lossHorizons maps each shard to the newest loss horizon over the domains
// that dropped events: the virtual time of that domain's oldest surviving
// event on the shard. Shards are independent virtual timelines, so the
// horizon is per shard.
func lossHorizons(d *Dump) map[uint16]time.Duration {
	horizon := make(map[uint16]time.Duration)
	for _, dd := range d.Domains {
		if dd.Dropped == 0 {
			continue
		}
		oldest := make(map[uint16]time.Duration)
		for _, e := range dd.Events {
			if v, ok := oldest[e.Shard]; !ok || e.VTime < v {
				oldest[e.Shard] = e.VTime
			}
		}
		for shard, v := range oldest {
			if h, ok := horizon[shard]; !ok || v > h {
				horizon[shard] = v
			}
		}
	}
	return horizon
}

// stitchOne rebuilds one trace ID's timeline; shard is the shard its call
// started on.
func stitchOne(tid uint64, evs []Event) (tl Timeline, shard uint16, isCall bool) {
	tl = Timeline{TraceID: tid, Device: -1}
	have := make(map[Kind]bool, len(evs))
	const unset = time.Duration(-1 << 62)
	start, end, dispatchAt, execStartV, execEndV := unset, unset, unset, unset, unset
	enqueueAt, flushAt := unset, unset
	for _, e := range evs {
		have[e.Kind] = true
		switch e.Kind {
		case EvCallStart:
			tl.Serialize += time.Duration(e.Arg2)
			if start == unset || e.VTime < start {
				start = e.VTime
				tl.API = e.Arg0
				tl.Seq = e.Seq
				shard = e.Shard
			}
		case EvCallEnd:
			tl.Completed = true
			tl.Boundary += time.Duration(e.Arg2)
			if end == unset || e.VTime > end {
				end = e.VTime
				tl.Result = e.Arg1
			}
		case EvRetry:
			tl.Retries++
		case EvDispatch:
			if dispatchAt == unset || e.VTime < dispatchAt {
				dispatchAt = e.VTime
			}
			// Daemon events arrive in ring order: the dispatch before the
			// first execution end is the one that executed, and execution
			// starts at its virtual instant. A dispatch that crashed before
			// executing is superseded by the redelivery's.
			if execEndV == unset {
				execStartV = e.VTime
			}
		case EvExecEnd:
			if execEndV == unset {
				execEndV = e.VTime
				tl.Shard = int(e.Shard)
			}
		case EvCopy:
			tl.Copy += time.Duration(e.Arg1)
		case EvExec, EvLaunch:
			tl.Device = int(e.Device)
			tl.Shard = int(e.Shard)
		case EvRoute:
			tl.Routes++
			if e.Arg1 == 1 {
				tl.Rerouted = true
			}
			tl.Route += time.Duration(e.Arg2)
			tl.Shard = int(e.Shard)
		case EvEnqueue:
			if enqueueAt == unset || e.VTime < enqueueAt {
				enqueueAt = e.VTime
			}
		case EvFlushStart:
			flushAt = e.VTime
		}
	}
	if !have[EvCallStart] {
		// Not a remoted call: a batcher member or flush-only trace ID.
		return tl, shard, false
	}
	tl.Start = start
	if end != unset {
		tl.End = end
	} else {
		tl.End = start
	}
	if dispatchAt != unset && dispatchAt > start {
		tl.Queue = dispatchAt - start
	}
	if execStartV != unset && execEndV != unset && execEndV >= execStartV {
		tl.ExecStartV, tl.ExecEndV = execStartV, execEndV
		window := execEndV - execStartV
		if tl.Copy > window {
			tl.Copy = window
		}
		tl.Exec = window - tl.Copy
		// The dispatch anchor can postdate the exec window when the first
		// dispatch event was retransmission-reordered; re-anchor on the
		// window so the stages still partition the call.
		if tl.Start+tl.Queue > execStartV {
			tl.Queue = execStartV - tl.Start
		}
		if tl.Queue < 0 {
			tl.Queue = 0
		}
	}
	if enqueueAt != unset && flushAt >= enqueueAt {
		tl.CoalesceStartV, tl.Coalesce = enqueueAt, flushAt-enqueueAt
	}
	if tl.Completed {
		other := tl.Total() - tl.Queue - (tl.ExecEndV - tl.ExecStartV) - tl.Boundary
		if other > 0 {
			tl.Other = other
		}
	}
	for _, link := range chain {
		if !have[link.kind] {
			tl.Missing = append(tl.Missing, link.name)
		}
	}
	tl.Complete = tl.Completed && len(tl.Missing) == 0
	return tl, shard, true
}

// StageMeans aggregates completed timelines into mean per-call
// nanoseconds for the virtual Fig 5/6 stages. The wall-time stages
// (Serialize, Route) are deliberately absent: they measure host
// scheduling, not modeled time, and would make a fixed-seed results file
// differ run over run. Consumers that gate on determinism (lakebench
// -results, lakeload) report exactly these fields.
type StageMeans struct {
	Calls      int
	PerCallNS  float64
	QueueNS    float64
	ExecNS     float64
	CopyNS     float64
	BoundaryNS float64
}

// MeasureStages folds the completed timelines of a stitched dump into
// per-stage means.
func MeasureStages(ts []Timeline) StageMeans {
	var m StageMeans
	var total, queue, exec, cp, boundary time.Duration
	for _, t := range ts {
		if !t.Completed {
			continue
		}
		m.Calls++
		total += t.Total()
		queue += t.Queue
		exec += t.Exec
		cp += t.Copy
		boundary += t.Boundary
	}
	if m.Calls > 0 {
		n := float64(m.Calls)
		m.PerCallNS = float64(total) / n
		m.QueueNS = float64(queue) / n
		m.ExecNS = float64(exec) / n
		m.CopyNS = float64(cp) / n
		m.BoundaryNS = float64(boundary) / n
	}
	return m
}

// stageNames orders the breakdown columns; the "(w)" stages (router
// placement, marshal) are wall time, the rest virtual.
var stageNames = []string{"route(w)", "serialize(w)", "queue", "exec", "copy", "boundary", "other"}

// wallStage reports whether the i'th breakdown column is wall time (and so
// excluded from virtual-share math).
func wallStage(i int) bool { return strings.HasSuffix(stageNames[i], "(w)") }

func (t Timeline) stages() []time.Duration {
	return []time.Duration{t.Route, t.Serialize, t.Queue, t.Exec, t.Copy, t.Boundary, t.Other}
}

// orNumeric substitutes numeric ids for a nil API namer.
func orNumeric(apiName func(uint64) string) func(uint64) string {
	if apiName == nil {
		return func(id uint64) string { return fmt.Sprintf("api_%d", id) }
	}
	return apiName
}

// BreakdownTable renders the paper-Fig-5/6-shaped per-stage latency table:
// one row per API, mean per-call microseconds per stage plus each virtual
// stage's share of total virtual time. apiName maps remoting API ids to
// names (pass nil for numeric ids).
func BreakdownTable(ts []Timeline, apiName func(uint64) string) string {
	apiName = orNumeric(apiName)
	type agg struct {
		api    uint64
		n      int
		total  time.Duration
		stages []time.Duration
	}
	byAPI := make(map[uint64]*agg)
	for _, t := range ts {
		if !t.Completed {
			continue
		}
		a := byAPI[t.API]
		if a == nil {
			a = &agg{api: t.API, stages: make([]time.Duration, len(stageNames))}
			byAPI[t.API] = a
		}
		a.n++
		a.total += t.Total()
		for i, d := range t.stages() {
			a.stages[i] += d
		}
	}
	rows := make([]*agg, 0, len(byAPI))
	for _, a := range byAPI {
		rows = append(rows, a)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].total > rows[j].total })

	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %7s %10s", "api", "calls", "total_us")
	for _, s := range stageNames {
		fmt.Fprintf(&b, " %12s", s)
	}
	b.WriteString("\n")
	us := func(d time.Duration, n int) float64 { return float64(d) / float64(n) / 1e3 }
	for _, a := range rows {
		fmt.Fprintf(&b, "%-24s %7d %10.2f", apiName(a.api), a.n, us(a.total, a.n))
		for i, d := range a.stages {
			cell := fmt.Sprintf("%.2f", us(d, a.n))
			if !wallStage(i) && a.total > 0 { // virtual stages get a share column
				cell += fmt.Sprintf("/%2.0f%%", 100*float64(d)/float64(a.total))
			}
			fmt.Fprintf(&b, " %12s", cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TailAttribution reports which stage dominates the slowest calls: the
// per-stage share of virtual time among calls at or above the q'th
// total-latency quantile, against the all-calls share for contrast.
func TailAttribution(ts []Timeline, q float64, apiName func(uint64) string) string {
	apiName = orNumeric(apiName)
	var done []Timeline
	for _, t := range ts {
		if t.Completed {
			done = append(done, t)
		}
	}
	if len(done) == 0 {
		return "no completed calls\n"
	}
	totals := make([]time.Duration, len(done))
	for i, t := range done {
		totals[i] = t.Total()
	}
	sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })
	rank := int(math.Ceil(q*float64(len(totals)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(totals) {
		rank = len(totals) - 1
	}
	cut := totals[rank]

	sum := func(pred func(Timeline) bool) (stages []time.Duration, total time.Duration, n int, apis map[uint64]int) {
		stages = make([]time.Duration, len(stageNames))
		apis = make(map[uint64]int)
		for _, t := range done {
			if !pred(t) {
				continue
			}
			n++
			total += t.Total()
			apis[t.API]++
			for i, d := range t.stages() {
				stages[i] += d
			}
		}
		return
	}
	allStages, allTotal, allN, _ := sum(func(Timeline) bool { return true })
	tailStages, tailTotal, tailN, tailAPIs := sum(func(t Timeline) bool { return t.Total() >= cut })

	share := func(stages []time.Duration, total time.Duration, i int) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(stages[i]) / float64(total)
	}
	dominant, dominantShare := "", -1.0
	var b strings.Builder
	fmt.Fprintf(&b, "p%.0f cutoff %.2fus: %d of %d calls\n", q*100, float64(cut)/1e3, tailN, allN)
	fmt.Fprintf(&b, "%-14s %12s %12s\n", "stage", "tail share", "all share")
	for i, name := range stageNames {
		if wallStage(i) {
			continue // wall-time stages; shares are of virtual totals
		}
		ts, as := share(tailStages, tailTotal, i), share(allStages, allTotal, i)
		fmt.Fprintf(&b, "%-14s %11.1f%% %11.1f%%\n", name, ts, as)
		if ts > dominantShare {
			dominant, dominantShare = name, ts
		}
	}
	fmt.Fprintf(&b, "tail is dominated by %q (%.1f%% of tail virtual time)\n", dominant, dominantShare)
	var names []string
	for api, n := range tailAPIs {
		names = append(names, fmt.Sprintf("%s×%d", apiName(api), n))
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "tail calls: %s\n", strings.Join(names, " "))
	return b.String()
}

// SpanStage is one timed segment of a Span on the virtual clock. Wall is
// set only on serialize, which costs wall time and no virtual time.
type SpanStage struct {
	Name   string        `json:"stage"`
	VStart time.Duration `json:"v_start_ns"`
	VEnd   time.Duration `json:"v_end_ns"`
	Wall   time.Duration `json:"wall_ns"`
}

// Span is one completed remoted call in the /spans.json shape: the call's
// virtual window and its stages, all inside that window. The window opens
// with the first stage: EvCallStart, or the coalesce stage ahead of it on a
// batched-flush call.
type Span struct {
	Name    string        `json:"name"`
	Seq     uint64        `json:"seq"`
	TraceID uint64        `json:"trace_id"`
	Result  uint64        `json:"result"` // remoting Result code the caller saw
	VStart  time.Duration `json:"v_start_ns"`
	VEnd    time.Duration `json:"v_end_ns"`
	Stages  []SpanStage   `json:"stages"`
}

// spanStages lays the timeline's stages out on the virtual clock: coalesce
// (flush calls that waited) ahead of the call, then serialize, queue, and —
// the stitcher knows the transfer total, not where inside the execution
// window it fell — copy followed by exec, then boundary.
func (t Timeline) spanStages() []SpanStage {
	var st []SpanStage
	if t.Coalesce > 0 {
		st = append(st, SpanStage{Name: "coalesce", VStart: t.CoalesceStartV, VEnd: t.CoalesceStartV + t.Coalesce})
	}
	dispatched := t.Start + t.Queue
	execStart, execEnd := dispatched, dispatched
	if t.ExecEndV > t.ExecStartV {
		execStart, execEnd = t.ExecStartV, t.ExecEndV
	}
	return append(st,
		SpanStage{Name: "serialize", VStart: t.Start, VEnd: t.Start, Wall: t.Serialize},
		SpanStage{Name: "queue", VStart: t.Start, VEnd: dispatched},
		SpanStage{Name: "copy", VStart: execStart, VEnd: execStart + t.Copy},
		SpanStage{Name: "exec", VStart: execStart + t.Copy, VEnd: execEnd},
		SpanStage{Name: "boundary", VStart: execEnd, VEnd: execEnd + t.Boundary},
	)
}

// Spans folds the completed timelines of a stitched dump into per-call
// spans, oldest first.
func Spans(ts []Timeline, apiName func(uint64) string) []Span {
	apiName = orNumeric(apiName)
	spans := []Span{}
	for _, t := range ts {
		if !t.Completed {
			continue
		}
		stages := t.spanStages()
		spans = append(spans, Span{Name: apiName(t.API), Seq: t.Seq, TraceID: t.TraceID, Result: t.Result,
			VStart: stages[0].VStart, VEnd: t.End, Stages: stages})
	}
	return spans
}

// chromeEvent is one Chrome trace_event record (Perfetto's JSON format).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace renders the stitched timelines (plus crash/transition
// markers from the dump) as Chrome trace_event JSON loadable in Perfetto
// (chrome://tracing, ui.perfetto.dev). The virtual clock is the time axis;
// each trace ID gets its own track.
func ChromeTrace(res *StitchResult, apiName func(uint64) string) ([]byte, error) {
	apiName = orNumeric(apiName)
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	var events []chromeEvent
	for _, t := range res.Timelines {
		if !t.Completed {
			continue
		}
		args := map[string]any{
			"api": apiName(t.API), "seq": t.Seq, "trace_id": t.TraceID,
			"retries": t.Retries, "serialize_wall_ns": t.Serialize.Nanoseconds(),
		}
		if t.Device >= 0 {
			args["device"] = t.Device
		}
		if t.Routes > 0 {
			args["shard"] = t.Shard
			args["rerouted"] = t.Rerouted
		}
		events = append(events, chromeEvent{
			Name: apiName(t.API), Cat: "call", Ph: "X", Pid: 1, Tid: t.TraceID,
			Ts: us(t.Start), Dur: us(t.Total()), Args: args,
		})
		for _, st := range t.spanStages() {
			if st.VEnd > st.VStart {
				events = append(events, chromeEvent{
					Name: st.Name, Cat: "stage", Ph: "X", Pid: 1, Tid: t.TraceID,
					Ts: us(st.VStart), Dur: us(st.VEnd - st.VStart),
				})
			}
		}
	}
	if res.Dump != nil {
		for _, dd := range res.Dump.Domains {
			for _, e := range dd.Events {
				switch e.Kind {
				case EvCrash, EvRestart, EvTransition, EvQueueFull, EvMigrateStart, EvMigrateEnd:
					events = append(events, chromeEvent{
						Name: e.Kind.String(), Cat: e.Domain.String(), Ph: "i",
						Pid: 1, Tid: e.TraceID, Ts: us(e.VTime),
						Args: map[string]any{"arg0": e.Arg0, "arg1": e.Arg1},
					})
				}
			}
		}
	}
	return json.MarshalIndent(map[string]any{
		"displayTimeUnit": "ns",
		"traceEvents":     events,
	}, "", " ")
}
