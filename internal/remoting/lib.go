package remoting

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"lakego/internal/boundary"
	"lakego/internal/cuda"
	"lakego/internal/flightrec"
	"lakego/internal/gpu"
	"lakego/internal/shm"
	"lakego/internal/telemetry"
)

// ErrTransport reports a remoting transport failure (closed channel, lost
// response).
var ErrTransport = errors.New("remoting: transport failure")

// Lib is lakeLib: the kernel-side module that exposes accelerator APIs as
// symbols to kernel space. Each method below is one exported stub — same
// name as the user-space API it remotes, per §4 ("to support the cuMemAlloc
// CUDA API in kernel space, we must have a function with the same name in
// lakeLib").
//
// Every call marshals a command, ships it through the boundary channel,
// drives the daemon, and unmarshals the response, charging the channel's
// modeled round-trip cost exactly once. Lib is safe for concurrent use: a
// call holds the channel's exchange lock from newCall to done, once, so
// concurrent kernel threads cannot interleave on the command channel and
// steal each other's responses (the prototype's Netlink usage is likewise
// serialized per socket). Everything a call touches on either side of the
// boundary — the call state, the rings, lakeD's pump and journal, the
// retry policy and its jitter PRNG — is guarded by that one lock.
//
// The call path is allocation-free at steady state: command, response, and
// frame storage live in the Lib's one callState, reused by every call, and
// the wire codecs are the Append*/Decode*Into variants that reuse that
// storage. The CI allocgate job holds the path at 0 allocs/op.
type Lib struct {
	tr     boundary.Channel
	daemon *Daemon

	// cs is the working storage of the call holding the exchange lock;
	// seq counts issued calls. Both are guarded by that lock.
	cs  callState
	seq uint64
	// shardTag is OR'd into the high bits of every issued sequence number
	// (SetShardTag). In a fleet each shard's lib gets a distinct tag, so
	// sequence spaces — and therefore journal keyspaces — stay disjoint
	// when one shard's journal is migrated into another's daemon.
	shardTag uint64

	// calls and the ResilienceStats counters are what Stats and
	// ResilienceStats report and what the registry exports; callLatency is
	// nil with telemetry disabled. remotedTime is cumulative modeled
	// channel time in virtual ns.
	calls                            telemetry.Counter
	retries, recoveries              telemetry.Counter
	corruptResponses, staleResponses telemetry.Counter
	daemonDead                       telemetry.Counter
	remotedTime                      atomic.Int64
	callLatency                      *telemetry.Histogram

	// rng is nil until EnableResilience arms the retry schedule (an
	// unarmed exchange makes one attempt); hook is the recovery hook it
	// armed, nil for none. Both are written only during construction;
	// rng's jitter draws happen under the exchange lock, so they keep one
	// deterministic order.
	rng  *rand.Rand
	hook RecoveryHook
	// dead is set once a call abandons the daemon as unrecoverable, and
	// never cleared: later calls fail fast with ErrDaemonDead (mapped to
	// cuda.ErrNotReady by the stubs, routing workloads to their CPU
	// fallback). It is written only under the exchange lock.
	dead atomic.Bool

	// rec is the flight recorder's kernel-domain view; nil-safe like the
	// telemetry instruments. It also serves as the trace-ID allocator for
	// the whole stack, so IDs are unique across lib, batcher, and daemon.
	rec *flightrec.Recorder
}

// marshalSampleMask picks the calls whose marshal is wall-timed for
// EvCallStart: those whose sequence number is 1 modulo 64 — a lib's first
// call and every 64th after it, in every shard's sequence space.
const marshalSampleMask = 63

// callState is one remoted invocation's working storage: the command being
// issued, the marshaled wire frame, and the decoded response. The Lib's one
// state is reused by every call; all slices keep their capacity across
// calls, so a warmed-up Lib issues commands without touching the heap.
type callState struct {
	cmd   Command
	resp  Response
	frame []byte
	// channel is the modeled round trip the successful attempt charged,
	// recorded on the call's EvCallEnd.
	channel time.Duration
}

// newCall takes the exchange lock and returns the Lib's callState primed
// for api; done releases the lock. The embedded command and response keep
// their slice capacities; lengths and scalar fields are reset.
func (l *Lib) newCall(api APIID) *callState {
	l.tr.Lock()
	cs := &l.cs
	cs.cmd = Command{API: api, Args: cs.cmd.Args[:0]}
	cs.resp.Seq = 0
	cs.resp.Result = 0
	cs.resp.Vals = cs.resp.Vals[:0]
	cs.resp.Blob = cs.resp.Blob[:0]
	cs.channel = 0
	return cs
}

// done ends a call: references into caller memory (inline blob, name) are
// dropped so the Lib never pins a caller's buffer, and the exchange lock is
// released. The state's own slices keep their capacity.
func (l *Lib) done(cs *callState) {
	cs.cmd.Name = ""
	cs.cmd.Blob = nil
	l.tr.Unlock()
}

// Instrument declares lakeLib's series on reg. Must be called during
// runtime construction, before any traffic.
func (l *Lib) Instrument(reg *telemetry.Registry, name telemetry.Namer) {
	reg.AttachCounter(name("lake_lib_calls_total"), "Completed remoted invocations.", &l.calls)
	l.callLatency = reg.Histogram(name("lake_lib_call_latency_ns"), "End-to-end remoted call latency (virtual ns), including backoff.", telemetry.DefaultLatencyBuckets())
	reg.AttachCounter(name("lake_lib_retries_total"), "Resilient-exchange retry attempts.", &l.retries)
	reg.AttachCounter(name("lake_lib_corrupt_responses_total"), "Responses dropped for CRC/decode failure.", &l.corruptResponses)
	reg.AttachCounter(name("lake_lib_stale_responses_total"), "Responses discarded for a stale sequence number.", &l.staleResponses)
	reg.AttachCounter(name("lake_lib_recoveries_total"), "Calls that succeeded after at least one retry.", &l.recoveries)
	reg.AttachCounter(name("lake_lib_daemon_dead_total"), "Calls refused because lakeD was declared dead.", &l.daemonDead)
}

// SetFlightRecorder attaches the flight recorder. Must be called during
// runtime construction, before any traffic; nil (the default) keeps every
// emission a no-op and every call untraced.
func (l *Lib) SetFlightRecorder(rec *flightrec.Recorder) {
	l.rec = rec
}

// NewLib creates the kernel-side stub library over a boundary channel. The
// daemon is driven synchronously from within calls, which keeps virtual-time
// accounting deterministic while the full wire protocol still runs. Until
// EnableResilience is called a failed exchange is not retried: the first
// failure latches the daemon dead (see Healthy).
func NewLib(tr boundary.Channel, daemon *Daemon) *Lib {
	return &Lib{tr: tr, daemon: daemon}
}

// SetShardTag namespaces this lib's sequence numbers under a fleet shard
// ordinal: bits 48+ carry ord, the low 48 bits count calls. Must be called
// during construction, before any traffic. Ordinal 0 (and a never-tagged
// lib) keeps the original sequence space byte-for-byte.
func (l *Lib) SetShardTag(ord int) {
	l.shardTag = uint64(ord) << 48
}

// Stats reports remoted call count and cumulative modeled channel time.
func (l *Lib) Stats() (calls int64, channelTime time.Duration) {
	return l.calls.Value(), time.Duration(l.remotedTime.Load())
}

// EnableResilience arms the fault-tolerant call path: the bounded retry
// schedule with exponential backoff and seeded jitter (see retryAttempts)
// and, via hook, supervisor-driven daemon recovery mid-call; a nil hook
// never recovers a dead daemon in-call. With faults absent an armed call
// performs exactly the un-armed exchange — no extra clock charges and no
// PRNG draws — so crash-free runs stay bit-identical. Must be called
// during runtime construction, before any traffic.
func (l *Lib) EnableResilience(hook RecoveryHook) {
	l.hook = hook
	l.rng = rand.New(rand.NewSource(0))
}

// ResilienceStats returns a snapshot of client-side fault-handling counters.
func (l *Lib) ResilienceStats() ResilienceStats {
	return ResilienceStats{
		Retries:          l.retries.Value(),
		StaleResponses:   l.staleResponses.Value(),
		CorruptResponses: l.corruptResponses.Value(),
		Recoveries:       l.recoveries.Value(),
		DaemonDead:       l.daemonDead.Value(),
	}
}

// Healthy reports whether the daemon is believed alive. False means a call
// gave the daemon up (ErrDaemonDead): from then on stubs return
// cuda.ErrNotReady and workloads run their CPU fallback.
func (l *Lib) Healthy() bool { return !l.dead.Load() }

// call performs one remoted invocation end to end: cs.cmd goes out, cs.resp
// holds the decoded response on a nil return. The caller holds the
// exchange lock (newCall).
func (l *Lib) call(cs *callState) error {
	cmd := &cs.cmd
	l.seq++
	cmd.Seq = l.shardTag | l.seq
	// A trace ID is assigned only when the recorder will consume it;
	// otherwise the command keeps TraceID 0, the untraced sentinel. Batcher
	// flushes arrive with an externally assigned ID, which is preserved.
	if cmd.TraceID == 0 && l.rec.Enabled() {
		cmd.TraceID = l.rec.NextTraceID()
	}
	// The marshal is cheaper than the two wall-clock reads timing it, so
	// only a sampled call pays for them; the rest record 0, "unmeasured".
	var marshalWall time.Time
	if cmd.Seq&marshalSampleMask == 1 {
		marshalWall = l.rec.WallStart()
	}
	frame, err := AppendCommand(cs.frame[:0], cmd)
	cs.frame = frame
	if err != nil {
		return err
	}
	marshalTook := flightrec.WallSince(marshalWall)
	vstart := l.tr.Clock().Now()
	l.rec.Emit(flightrec.DomainKernel, flightrec.EvCallStart,
		cmd.TraceID, cmd.Seq, 0, uint64(cmd.API), uint64(len(frame)), marshalTook)
	err = l.exchangeResilient(cs)
	if err == nil {
		l.callLatency.ObserveDuration(l.tr.Clock().Now() - vstart)
		l.rec.Emit(flightrec.DomainKernel, flightrec.EvCallEnd,
			cmd.TraceID, cmd.Seq, 0, uint64(cmd.API), uint64(uint32(cs.resp.Result)), uint64(cs.channel))
	} else {
		l.rec.Emit(flightrec.DomainKernel, flightrec.EvCallEnd,
			cmd.TraceID, cmd.Seq, 0, uint64(cmd.API), uint64(uint32(failResult(err))), 0)
	}
	return err
}

// failResult maps a failed call to the CUDA result the stubs surface (and
// EvCallEnd records). A dead daemon means the accelerator service is
// unavailable, not the request invalid:
// CUDA_ERROR_SYSTEM_NOT_READY routes callers to their CPU fallback (the
// Fig 3 policy handles the rest).
func failResult(err error) cuda.Result {
	if errors.Is(err, ErrDaemonDead) {
		return cuda.ErrNotReady
	}
	return cuda.ErrUnknown
}

// exchangeResilient performs one call under the retry schedule when armed:
// bounded retransmission of the same sequence number (the daemon-side
// journal makes redelivery exactly-once), exponential backoff with
// deterministic jitter charged to the virtual clock, and the recovery hook
// when a full retry round fails, told when the call then completes. Every
// error is wrapped with the command name and sequence for attribution. The
// caller holds the exchange lock.
func (l *Lib) exchangeResilient(cs *callState) error {
	cmd := &cs.cmd
	if !l.Healthy() {
		l.daemonDead.Inc()
		return fmt.Errorf("%s seq=%d: %w", cmd.API, cmd.Seq, ErrDaemonDead)
	}
	attempts := 1
	if l.rng != nil {
		attempts = retryAttempts
	}
	recoveries := 0
	attempt := 0 // failed attempts in the current retry round
	for {
		err := l.attemptOnce(cs)
		if err == nil {
			if recoveries > 0 {
				l.hook.DaemonRecovered()
			}
			return nil
		}
		attempt++
		if attempt < attempts {
			// Wait out the backoff on the virtual clock, then retransmit
			// the same frame: same sequence, so a daemon that already
			// executed it answers from its journal.
			l.retries.Inc()
			l.rec.Emit(flightrec.DomainKernel, flightrec.EvRetry,
				cmd.TraceID, cmd.Seq, 0, uint64(attempt), 0, 0)
			l.tr.Clock().Advance(backoff(attempt-1, l.rng.Float64()))
			continue
		}
		// Full round exhausted: the daemon is unresponsive. The supervisor
		// either recovers it, and the call redelivers, or gives it up.
		if l.hook != nil && l.hook.DaemonUnresponsive(recoveries) {
			recoveries++
			attempt = 0
			l.recoveries.Inc()
			continue
		}
		l.daemonDead.Inc()
		l.dead.Store(true)
		return fmt.Errorf("%s seq=%d: %w (last: %v)", cmd.API, cmd.Seq, ErrDaemonDead, err)
	}
}

// attemptOnce sends the frame, drives the daemon through everything queued
// in one Pump (retransmissions and channel duplicates dedup via the
// journal), and demultiplexes responses: corrupt frames and stale sequences
// are counted and discarded; only this call's sequence completes the
// attempt. The pump runs under the exchange lock the call holds.
func (l *Lib) attemptOnce(cs *callState) error {
	cmd := &cs.cmd
	if err := l.tr.SendToUser(cs.frame); err != nil {
		return fmt.Errorf("%s seq=%d: %w: %v", cmd.API, cmd.Seq, ErrTransport, err)
	}
	l.daemon.Pump()
	for {
		respFrame, ok := l.tr.RecvInKernel()
		if !ok {
			return fmt.Errorf("%s seq=%d: %w: no response", cmd.API, cmd.Seq, ErrTransport)
		}
		if err := DecodeResponseInto(&cs.resp, respFrame); err != nil {
			l.corruptResponses.Inc()
			continue
		}
		if cs.resp.Seq != cmd.Seq {
			// A duplicate of an earlier call's response, a journal
			// redelivery that raced a completed call, or the daemon's
			// seq-0 reject of a corrupted command.
			l.staleResponses.Inc()
			continue
		}
		cs.channel = l.tr.ChargeRoundTrip(len(cs.frame) + len(respFrame))
		l.calls.Inc()
		l.remotedTime.Add(int64(cs.channel))
		return nil
	}
}

// doCall runs cs through the call path and maps transport-level failures to
// CUDA results the way the stubs surface them. On failure the response's
// payload slices are emptied so stale values from an earlier call can never
// leak into a caller.
func (l *Lib) doCall(cs *callState) cuda.Result {
	if err := l.call(cs); err != nil {
		cs.resp.Vals = cs.resp.Vals[:0]
		cs.resp.Blob = cs.resp.Blob[:0]
		return failResult(err)
	}
	return cuda.Result(cs.resp.Result)
}

func val(resp *Response, i int) uint64 {
	if resp == nil || i >= len(resp.Vals) {
		return 0
	}
	return resp.Vals[i]
}

// CuInit remotes cuInit.
func (l *Lib) CuInit() cuda.Result {
	cs := l.newCall(APICuInit)
	r := l.doCall(cs)
	l.done(cs)
	return r
}

// CuDeviceGetCount remotes cuDeviceGetCount.
func (l *Lib) CuDeviceGetCount() (int, cuda.Result) {
	cs := l.newCall(APICuDeviceGetCount)
	r := l.doCall(cs)
	n := int(val(&cs.resp, 0))
	l.done(cs)
	return n, r
}

// CuDeviceGetName remotes cuDeviceGetName.
func (l *Lib) CuDeviceGetName() (string, cuda.Result) {
	cs := l.newCall(APICuDeviceGetName)
	r := l.doCall(cs)
	name := string(cs.resp.Blob)
	l.done(cs)
	return name, r
}

// CuCtxCreate remotes cuCtxCreate; client tags the context for utilization
// attribution.
func (l *Lib) CuCtxCreate(client string) (uint64, cuda.Result) {
	cs := l.newCall(APICuCtxCreate)
	cs.cmd.Name = client
	r := l.doCall(cs)
	h := val(&cs.resp, 0)
	l.done(cs)
	return h, r
}

// CuCtxCreateOnDevice remotes cuCtxCreate pinned to a device ordinal,
// bypassing lakeD's placement policy. The ordinal travels as ordinal+1 so
// the zero value (and the argless single-device wire shape) still means
// "let placement choose".
func (l *Lib) CuCtxCreateOnDevice(client string, ord int) (uint64, cuda.Result) {
	cs := l.newCall(APICuCtxCreate)
	cs.cmd.Name = client
	cs.cmd.Args = append(cs.cmd.Args, uint64(ord)+1)
	r := l.doCall(cs)
	h := val(&cs.resp, 0)
	l.done(cs)
	return h, r
}

// CuMemAlloc remotes cuMemAlloc.
func (l *Lib) CuMemAlloc(size int64) (gpu.DevPtr, cuda.Result) {
	cs := l.newCall(APICuMemAlloc)
	cs.cmd.Args = append(cs.cmd.Args, uint64(size))
	r := l.doCall(cs)
	ptr := gpu.DevPtr(val(&cs.resp, 0))
	l.done(cs)
	return ptr, r
}

// CuMemAllocOnDevice remotes cuMemAlloc against an explicit device
// ordinal; the returned pointer carries the ordinal tag.
func (l *Lib) CuMemAllocOnDevice(size int64, ord int) (gpu.DevPtr, cuda.Result) {
	cs := l.newCall(APICuMemAlloc)
	cs.cmd.Args = append(cs.cmd.Args, uint64(size), uint64(ord))
	r := l.doCall(cs)
	ptr := gpu.DevPtr(val(&cs.resp, 0))
	l.done(cs)
	return ptr, r
}

// CuMemGetInfo remotes cuMemGetInfo: free and total device memory.
func (l *Lib) CuMemGetInfo() (free, total int64, r cuda.Result) {
	cs := l.newCall(APICuMemGetInfo)
	r = l.doCall(cs)
	free, total = int64(val(&cs.resp, 0)), int64(val(&cs.resp, 1))
	l.done(cs)
	return free, total, r
}

// CuMemFree remotes cuMemFree.
func (l *Lib) CuMemFree(ptr gpu.DevPtr) cuda.Result {
	cs := l.newCall(APICuMemFree)
	cs.cmd.Args = append(cs.cmd.Args, uint64(ptr))
	r := l.doCall(cs)
	l.done(cs)
	return r
}

// CuMemcpyHtoDShm copies from a lakeShm buffer to device memory — the
// zero-copy path: only the offset crosses the boundary.
func (l *Lib) CuMemcpyHtoDShm(dst gpu.DevPtr, src shm.Buffer, n int64) cuda.Result {
	if n > src.Size() {
		return cuda.ErrInvalidValue
	}
	cs := l.newCall(APICuMemcpyHtoD)
	cs.cmd.Args = append(cs.cmd.Args, uint64(dst), uint64(src.Offset()), uint64(n), 1)
	r := l.doCall(cs)
	l.done(cs)
	return r
}

// CuMemcpyHtoD copies from an ordinary kernel buffer to device memory. The
// payload rides inline in the command — the extra-copy path that §4.1 notes
// still works "if applications do not use lakeShm ... this will just cause
// extra data copies" (and the correspondingly larger Fig 6 charge).
func (l *Lib) CuMemcpyHtoD(dst gpu.DevPtr, src []byte) cuda.Result {
	cs := l.newCall(APICuMemcpyHtoD)
	cs.cmd.Args = append(cs.cmd.Args, uint64(dst), 0, uint64(len(src)), 0)
	cs.cmd.Blob = src
	r := l.doCall(cs)
	l.done(cs)
	return r
}

// CuMemcpyDtoHShm copies device memory into a lakeShm buffer (zero-copy).
func (l *Lib) CuMemcpyDtoHShm(dst shm.Buffer, src gpu.DevPtr, n int64) cuda.Result {
	if n > dst.Size() {
		return cuda.ErrInvalidValue
	}
	cs := l.newCall(APICuMemcpyDtoH)
	cs.cmd.Args = append(cs.cmd.Args, uint64(src), uint64(dst.Offset()), uint64(n), 1)
	r := l.doCall(cs)
	l.done(cs)
	return r
}

// CuMemcpyDtoH copies device memory into an ordinary kernel buffer; the data
// rides back inline in the response (extra copy).
func (l *Lib) CuMemcpyDtoH(dst []byte, src gpu.DevPtr) cuda.Result {
	cs := l.newCall(APICuMemcpyDtoH)
	cs.cmd.Args = append(cs.cmd.Args, uint64(src), 0, uint64(len(dst)), 0)
	r := l.doCall(cs)
	if r == cuda.Success {
		copy(dst, cs.resp.Blob)
	}
	l.done(cs)
	return r
}

// CuModuleLoad remotes cuModuleLoad.
func (l *Lib) CuModuleLoad(path string) (uint64, cuda.Result) {
	cs := l.newCall(APICuModuleLoad)
	cs.cmd.Name = path
	r := l.doCall(cs)
	h := val(&cs.resp, 0)
	l.done(cs)
	return h, r
}

// CuModuleGetFunction remotes cuModuleGetFunction.
func (l *Lib) CuModuleGetFunction(module uint64, name string) (uint64, cuda.Result) {
	cs := l.newCall(APICuModuleGetFunction)
	cs.cmd.Name = name
	cs.cmd.Args = append(cs.cmd.Args, module)
	r := l.doCall(cs)
	h := val(&cs.resp, 0)
	l.done(cs)
	return h, r
}

// CuLaunchKernel remotes cuLaunchKernel.
func (l *Lib) CuLaunchKernel(ctx, fn uint64, args []uint64) cuda.Result {
	cs := l.newCall(APICuLaunchKernel)
	cs.cmd.Args = append(cs.cmd.Args, ctx, fn)
	cs.cmd.Args = append(cs.cmd.Args, args...)
	r := l.doCall(cs)
	l.done(cs)
	return r
}

// NvmlGetUtilization remotes the NVML utilization query policies sample
// (Fig 3's "LAKE-remoted nvml API").
func (l *Lib) NvmlGetUtilization() (gpuPct, memPct int, r cuda.Result) {
	cs := l.newCall(APINvmlUtilization)
	r = l.doCall(cs)
	gpuPct, memPct = int(val(&cs.resp, 0)), int(val(&cs.resp, 1))
	l.done(cs)
	return gpuPct, memPct, r
}

// CallHighLevel invokes a custom high-level API registered in lakeD under
// name (§4.4). args and blob are handler-defined; large inputs should be
// staged in lakeShm and referenced by offset in args. The returned slices
// are the caller's to keep (copied out of the reused response).
func (l *Lib) CallHighLevel(name string, args []uint64, blob []byte) ([]uint64, []byte, cuda.Result) {
	cs := l.newCall(APIHighLevel)
	cs.cmd.Name = name
	cs.cmd.Args = append(cs.cmd.Args, args...)
	cs.cmd.Blob = blob
	r := l.doCall(cs)
	var vals []uint64
	var out []byte
	if len(cs.resp.Vals) > 0 {
		vals = append(vals, cs.resp.Vals...)
	}
	if len(cs.resp.Blob) > 0 {
		out = append(out, cs.resp.Blob...)
	}
	l.done(cs)
	return vals, out, r
}
