// Package flightrec is LAKE's always-on flight recorder: per-domain MPSC
// rings of fixed-size binary event records, in the spirit of ftrace's ring
// buffers. Every layer of the remoting stack — lakeLib, the boundary
// channel, lakeD, the batcher, the GPU model and device pool, and the
// supervisor — emits compact events (virtual + wall timestamp, kind, trace
// ID, sequence number, device ordinal, three payload words) into its own
// ring. The rings are cheap enough to leave on (one atomic cursor fetch-add
// plus ten atomic stores per event; one atomic load when disabled) and
// their contents become the crash artifact: dumps trigger automatically on
// supervisor Dead/Restarting transitions and armed chaos crashes, and on
// demand over laked's telemetry HTTP server.
//
// The trace ID threaded through events is the cross-boundary correlation
// key: lakeLib stamps each remoted command with a fresh ID (carried on the
// wire by the optional v2 command frame), lakeD tags its dispatch/exec
// events with the same ID, and the GPU layers inherit it from the in-flight
// execution — so one inference call can be stitched back together across
// the kernel/user boundary. cmd/laketrace does exactly that with a dump.
package flightrec

import (
	"sync"
	"sync/atomic"
	"time"

	"lakego/internal/vtime"
)

// Domain identifies which layer of the stack emitted an event; each domain
// writes to its own ring so a noisy layer cannot evict another's history.
type Domain uint8

const (
	DomainKernel     Domain = iota // lakeLib, the kernel-side stub library
	DomainBoundary                 // the modeled kernel/user channel
	DomainDaemon                   // lakeD command dispatch and execution
	DomainBatcher                  // cross-client batching
	DomainGPU                      // device model, CUDA API, device pool
	DomainSupervisor               // daemon health state machine
	DomainRouter                   // fleet client-side routing and migration
	DomainLifecycle                // model registry: swaps, retraining, drift
	numDomains
)

var domainNames = [numDomains]string{
	"kernel", "boundary", "daemon", "batcher", "gpu", "supervisor", "router",
	"lifecycle",
}

func (d Domain) String() string {
	if int(d) < len(domainNames) {
		return domainNames[d]
	}
	return "unknown"
}

// Kind is the event type. Payload word meanings are per kind and documented
// inline; unused words are zero.
type Kind uint16

const (
	EvNone          Kind = iota
	EvCallStart          // kernel: remoted call begins; a0=API id
	EvMarshal            // kernel: command marshaled; a0=wall ns spent
	EvRetry              // kernel: retransmission; a0=attempt number
	EvChannel            // kernel: boundary round trip charged; a0=virtual ns, a1=bytes
	EvDemux              // kernel: response matched to call; a0=wall ns spent
	EvCallEnd            // kernel: remoted call done; a0=API id, a1=Result code
	EvFrameSend          // boundary: frame enqueued; a0=bytes, a1=direction (0 to user, 1 to kernel)
	EvFrameRecv          // boundary: frame dequeued; a0=bytes, a1=direction
	EvQueueFull          // boundary: frame lost to a full channel queue; a1=direction
	EvDispatch           // daemon: command decoded; a0=API id
	EvJournalHit         // daemon: redelivered command answered from the journal
	EvExecStart          // daemon: command execution begins; a0=API id
	EvExecEnd            // daemon: command execution done; a0=API id, a1=Result code
	EvRespond            // daemon: response frame sent; a0=API id
	EvCrash              // daemon: armed crash fired; a0=crash point
	EvRestart            // daemon: daemon restarted; a0=new generation
	EvEnqueue            // batcher: request queued; Seq=per-model request seq, a0=item count, a1=model function handle (EvLaunch's a0)
	EvFlushStart         // batcher: flush begins; Seq=first member's seq, a0=batched requests (members are seqs [Seq, Seq+a0)), a1=reason (0 full, 1 deadline), a2=model function handle
	EvFlushEnd           // batcher: flush done; a0=batched requests, a1=1 if GPU path, 0 if CPU fallback
	EvPlace              // gpu: pool placement decision; a0=policy, a1=1 for a flush placement
	EvLaunch             // gpu: kernel launch requested; a0=function handle, a1=arg count
	EvExec               // gpu: device executed work; a0=virtual ns of work, a1=virtual ns queued behind the device
	EvCopy               // gpu: transfer charged; a0=bytes, a1=virtual ns
	EvTransition         // supervisor: state change; a0=from, a1=to
	EvRoute              // router: call placed on a shard; a0=policy, a1=1 for a migration re-route, a2=wall ns spent placing (0 on a sticky hit: nothing was decided)
	EvMigrateStart       // router: shard migration begins; a0=source shard, a1=destination shard
	EvMigrateEnd         // router: shard migration done; a0=source shard, a1=destination shard, a2=journal entries moved
	EvDoorbell           // boundary: ring-transport doorbell rung on an empty→nonempty transition; a0=bytes, a1=direction
	EvModelRegister      // lifecycle: version added to the registry; a0=version seq, a1=content hash (low 64)
	EvModelSwap          // lifecycle: serving slot flipped; a0=new version seq, a1=old version seq, a2=reason (0 promote, 1 demote, 2 rollback)
	EvRetrainStep        // lifecycle: one online SGD step; a0=samples consumed, a1=loss milli-units
	EvShadowScore        // lifecycle: A-B shadow comparison; a0=candidate hits, a1=serving hits, a2=window size
	EvDriftAlarm         // lifecycle: drift detector fired; a0=accuracy per-mille, a1=baseline per-mille, a2=consecutive bad windows
	EvFallback           // lifecycle: model marked unhealthy, *Auto routing on heuristic path; a0=1 entering fallback, 0 leaving
	numKinds
)

var kindNames = [numKinds]string{
	"none", "call_start", "marshal", "retry", "channel", "demux", "call_end",
	"frame_send", "frame_recv", "queue_full",
	"dispatch", "journal_hit", "exec_start", "exec_end", "respond", "crash", "restart",
	"enqueue", "flush_start", "flush_end",
	"place", "launch", "exec", "copy",
	"transition",
	"route", "migrate_start", "migrate_end",
	"doorbell",
	"model_register", "model_swap", "retrain_step", "shadow_score", "drift_alarm", "fallback",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one decoded flight-recorder record. On the wire (and in the
// rings) it is exactly eventWords packed uint64s.
type Event struct {
	VTime   time.Duration // virtual-clock timestamp
	Wall    int64         // wall-clock timestamp, unix nanoseconds
	TraceID uint64
	Seq     uint64
	Domain  Domain
	Kind    Kind
	Shard   uint16 // fleet shard ordinal (0 outside a fleet)
	Device  uint16 // device ordinal for GPU-domain events
	Arg0    uint64
	Arg1    uint64
	Arg2    uint64
}

// pack squeezes kind/shard/domain/device into one word: kind in bits 32-47,
// shard in the previously unused bits 48-63, domain in 16-23, device in
// 0-15.
func (e Event) pack() [eventWords]uint64 {
	return [eventWords]uint64{
		uint64(e.VTime),
		uint64(e.Wall),
		e.TraceID,
		e.Seq,
		uint64(e.Kind)<<32 | uint64(e.Shard)<<48 | uint64(e.Domain)<<16 | uint64(e.Device),
		e.Arg0,
		e.Arg1,
		e.Arg2,
	}
}

func unpackEvent(w [eventWords]uint64) Event {
	return Event{
		VTime:   time.Duration(w[0]),
		Wall:    int64(w[1]),
		TraceID: w[2],
		Seq:     w[3],
		Kind:    Kind(w[4] >> 32),
		Shard:   uint16(w[4] >> 48),
		Domain:  Domain(w[4] >> 16),
		Device:  uint16(w[4]),
		Arg0:    w[5],
		Arg1:    w[6],
		Arg2:    w[7],
	}
}

// FrameInfo is what a frame peeker extracts from a wire frame so the
// boundary can tag its events without decoding (or depending on) the
// remoting package.
type FrameInfo struct {
	Seq, TraceID uint64
}

// FramePeeker reads the identifying header of a wire frame. ok is false for
// frames the peeker does not recognize (corrupt or foreign); the boundary
// still records those, just untagged.
type FramePeeker func(frame []byte) (FrameInfo, bool)

// DefaultRingSize is the per-domain ring capacity when the config does not
// say otherwise: 4096 events × 64 bytes × 8 domains = 2 MiB resident.
const DefaultRingSize = 4096

// wallRefreshEvery is how many emissions share one cached wall-clock read.
// Emit used to call time.Now() per event, which dominated wall time on the
// ring transport (~65% CPU in profiles); the recorder now refreshes a single
// atomic word when a ring reserves an index that is a multiple of this. Event
// wall stamps are therefore coarse — laketrace stitching orders and
// partitions on the virtual timestamps, and dump headers re-read the real
// clock, so only the per-event display resolution degrades.
const wallRefreshEvery = 64

// Recorder owns one ring per domain plus the trace-ID allocator. All
// methods are safe on a nil *Recorder and safe for concurrent use; Emit on
// a disabled recorder costs one atomic load.
//
// A fleet shares one recorder across shards through WithShard views: each
// view writes to the root's rings (and draws from the root's trace-ID
// allocator, so IDs stay fleet-unique) but stamps its shard ordinal on
// every event and keeps its own in-flight execution word — each shard's
// lakeD executes commands independently, so one shared execTID would
// cross-tag concurrent executions.
type Recorder struct {
	enabled atomic.Bool
	clock   *vtime.Clock
	traceID atomic.Uint64
	execTID atomic.Uint64 // trace ID of the command this shard's lakeD is executing now
	peek    atomic.Value  // FramePeeker
	rings   [numDomains]*ring

	// Coarse wall clock: one cached unix-ns word shared by all emitters,
	// refreshed every wallRefreshEvery events (see the const for why).
	wallCoarse atomic.Int64

	shard uint16    // ordinal stamped on events emitted through this view
	root  *Recorder // non-nil on shard views; shared ring/dump/ID state lives there

	dumpMu sync.Mutex
	last   *Dump
}

// base resolves to the recorder owning the shared state: the root for a
// shard view, the receiver otherwise.
func (r *Recorder) base() *Recorder {
	if r.root != nil {
		return r.root
	}
	return r
}

// WithShard derives a view of the recorder for fleet shard ord: events
// emitted through the view carry Shard=ord and land in the shared rings.
// The view has an independent BeginExec/EndExec word. clock, when non-nil,
// stamps the view's events — fleet shards run on independent virtual
// clocks, so each shard's events must be stamped on its own timeline; nil
// inherits the root's clock. Nil-safe.
func (r *Recorder) WithShard(ord int, clock *vtime.Clock) *Recorder {
	if r == nil {
		return nil
	}
	b := r.base()
	if clock == nil {
		clock = b.clock
	}
	return &Recorder{clock: clock, shard: uint16(ord), root: b}
}

// Shard returns the ordinal this view stamps on events (0 for the root).
func (r *Recorder) Shard() int {
	if r == nil {
		return 0
	}
	return int(r.shard)
}

// New builds a recorder on the runtime's virtual clock with ringSize events
// per domain (DefaultRingSize if <= 0). The recorder starts disabled.
func New(clock *vtime.Clock, ringSize int) *Recorder {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	r := &Recorder{clock: clock}
	for i := range r.rings {
		r.rings[i] = newRing(ringSize)
	}
	return r
}

// SetEnabled switches recording on or off (fleet-wide on a shard view).
// No-op on nil.
func (r *Recorder) SetEnabled(on bool) {
	if r != nil {
		r.base().enabled.Store(on)
	}
}

// Enabled reports whether events are being recorded (false for nil).
func (r *Recorder) Enabled() bool {
	return r != nil && r.base().enabled.Load()
}

// NextTraceID allocates a fresh nonzero trace ID. Valid (and deterministic)
// even while recording is disabled, so span tracing can key off trace IDs
// without the recorder. Shard views draw from the root's allocator, keeping
// IDs unique across a fleet. Returns 0 on nil — the "untraced" sentinel
// that keeps the wire in its old byte-identical shape.
func (r *Recorder) NextTraceID() uint64 {
	if r == nil {
		return 0
	}
	return r.base().traceID.Add(1)
}

// SetFramePeeker installs the frame-header reader the boundary events use.
// Injected by core from the remoting package to keep this package (and the
// boundary) free of a protocol dependency.
func (r *Recorder) SetFramePeeker(p FramePeeker) {
	if r != nil && p != nil {
		r.base().peek.Store(p)
	}
}

// coarseWall returns the cached wall clock for the event reserved at ring
// index idx, refreshed every wallRefreshEvery indices (and while unset).
func (r *Recorder) coarseWall(idx uint64) int64 {
	if idx%wallRefreshEvery != 0 {
		if w := r.wallCoarse.Load(); w != 0 {
			return w
		}
	}
	now := time.Now().UnixNano()
	r.wallCoarse.Store(now)
	return now
}

// WallStart reads the wall clock for an event payload that times a span,
// and only while recording: the zero Time means "not measured".
func (r *Recorder) WallStart() (t time.Time) {
	if r.Enabled() {
		t = time.Now()
	}
	return t
}

// WallSince is a WallStart reading's payload: wall ns since, 0 unmeasured.
func WallSince(start time.Time) uint64 {
	if start.IsZero() {
		return 0
	}
	return uint64(time.Since(start))
}

// Emit records one event. device is the GPU ordinal (pass 0 elsewhere).
func (r *Recorder) Emit(d Domain, k Kind, traceID, seq uint64, device int, a0, a1, a2 uint64) {
	if !r.Enabled() {
		return
	}
	b := r.base()
	e := Event{
		VTime:   r.clock.Now(),
		TraceID: traceID,
		Seq:     seq,
		Domain:  d,
		Kind:    k,
		Shard:   r.shard,
		Device:  uint16(device),
		Arg0:    a0,
		Arg1:    a1,
		Arg2:    a2,
	}
	rg := b.rings[d]
	idx := rg.reserve()
	e.Wall = b.coarseWall(idx)
	rg.publish(idx, e.pack())
}

// EmitFrame records a boundary-domain event for a wire frame, tagging it
// with the frame's trace ID and sequence number when the installed peeker
// recognizes it. dir is 0 for kernel→user, 1 for user→kernel.
func (r *Recorder) EmitFrame(k Kind, frame []byte, dir uint64) {
	if !r.Enabled() {
		return
	}
	var tid, seq uint64
	if p, ok := r.base().peek.Load().(FramePeeker); ok {
		if info, ok := p(frame); ok {
			tid, seq = info.TraceID, info.Seq
		}
	}
	r.Emit(DomainBoundary, k, tid, seq, 0, uint64(len(frame)), dir, 0)
}

// BeginExec marks traceID as the command lakeD is currently executing, so
// GPU-domain events fired from inside the execution (launches, copies) can
// inherit it. lakeD executes one command at a time (every PumpOne runs
// under lakeLib's call lock), so a single word suffices.
func (r *Recorder) BeginExec(traceID uint64) {
	if r != nil {
		r.execTID.Store(traceID)
	}
}

// EndExec clears the in-flight execution trace ID.
func (r *Recorder) EndExec() {
	if r != nil {
		r.execTID.Store(0)
	}
}

// ExecTrace returns the trace ID of the command currently executing in
// lakeD, or 0 when GPU work is running outside a remoted command.
func (r *Recorder) ExecTrace() uint64 {
	if r == nil {
		return 0
	}
	return r.execTID.Load()
}

// Dropped totals the events lost to ring overflow so far across domains.
// Torn slots are only detectable at snapshot time and are added to the
// per-domain dropped counts in the dump itself.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	var n uint64
	for _, rg := range r.base().rings {
		n += rg.overwritten()
	}
	return n
}

// Snapshot captures the surviving events of every domain into a Dump.
// Writers are not paused; slots torn during the scan count as dropped.
func (r *Recorder) Snapshot(reason string) *Dump {
	if r == nil {
		return nil
	}
	r = r.base()
	d := &Dump{
		Version: dumpVersion,
		Reason:  reason,
		VNow:    r.clock.Now(),
		WallNow: time.Now().UnixNano(),
	}
	r.wallCoarse.Store(d.WallNow) // dumps re-anchor the coarse event clock
	for dom := Domain(0); dom < numDomains; dom++ {
		raw, dropped := r.rings[dom].snapshot()
		dd := DomainDump{Domain: dom, Name: dom.String(), Dropped: dropped}
		dd.Events = make([]Event, len(raw))
		for i, w := range raw {
			dd.Events[i] = unpackEvent(w)
		}
		d.Domains = append(d.Domains, dd)
	}
	return d
}

// TriggerDump snapshots the rings in response to a fault (supervisor
// transition, armed crash, operator request) and retains it as LastDump.
// No-op when disabled.
func (r *Recorder) TriggerDump(reason string) *Dump {
	if !r.Enabled() {
		return nil
	}
	r = r.base()
	d := r.Snapshot(reason)
	r.dumpMu.Lock()
	r.last = d
	r.dumpMu.Unlock()
	return d
}

// LastDump returns the most recent automatic dump, if any.
func (r *Recorder) LastDump() *Dump {
	if r == nil {
		return nil
	}
	r = r.base()
	r.dumpMu.Lock()
	defer r.dumpMu.Unlock()
	return r.last
}
