package remoting

import (
	"fmt"
	"sync"

	"lakego/internal/boundary"
	"lakego/internal/cuda"
	"lakego/internal/faults"
	"lakego/internal/flightrec"
	"lakego/internal/gpu"
	"lakego/internal/nvml"
	"lakego/internal/shm"
	"lakego/internal/telemetry"
)

// HighLevelHandler realizes one custom high-level API (§4.4). It runs in the
// user domain with direct access to the CUDA API and the shared region, so
// handlers can implement TensorFlow-style functionality that would be
// impractical to port to kernel space. Returned values and blob travel back
// in the response.
type HighLevelHandler func(api *cuda.API, region *shm.Region, args []uint64, blob []byte) (vals []uint64, out []byte, result cuda.Result)

// Daemon is lakeD: the trusted user-space process that listens for commands
// from lakeLib, deserializes them, and executes the requested APIs against
// the vendor library (§4: "This daemon must have access to the vendor's
// library (e.g. cudart.so) to realize APIs requested by lakeLib").
type Daemon struct {
	api     *cuda.API
	region  *shm.Region
	tr      boundary.Channel
	journal *journal

	// pumpMu serializes PumpOne; scratch is the pump's reusable working
	// state (decoded command, response under construction, outbound frame
	// buffer, name intern table, batch demux state). With every buffer
	// warmed the daemon serves a command without heap allocation — lakeD's
	// half of the ring transport's 0 allocs/op budget.
	pumpMu  sync.Mutex
	scratch pumpScratch

	mu        sync.Mutex
	highlevel map[string]HighLevelHandler
	crashed   bool
	// pendingCrash is a test/supervisor-injected crash for the next
	// executed command; the fault plane injects probabilistic ones.
	pendingCrash faults.CrashPoint
	fault        *faults.Plane
	restarts     int64
	generation   uint64
	errlog       []string

	// The counters are what Handled/Executed/Redelivered report and what
	// the registry exports; the gauges hold the last NVML utilization
	// sample served (%) and are nil with telemetry disabled.
	handled       telemetry.Counter // responses that reached the channel
	executed      telemetry.Counter // commands whose handler actually ran
	redelivered   telemetry.Counter // commands answered from the journal
	corruptFrames telemetry.Counter // undecodable command frames
	gpuUtil       *telemetry.Gauge
	memUtil       *telemetry.Gauge

	// rec is the flight recorder's daemon-domain view; nil-safe. Its
	// BeginExec/EndExec window is how GPU-domain events inherit the trace ID
	// of the command lakeD is executing.
	rec *flightrec.Recorder
}

// Instrument declares lakeD's series on reg. Must be called during runtime
// construction, before any traffic.
func (d *Daemon) Instrument(reg *telemetry.Registry, name telemetry.Namer) {
	reg.AttachCounter(name("lake_daemon_handled_total"), "Responses lakeD put on the channel.", &d.handled)
	reg.AttachCounter(name("lake_daemon_executed_total"), "Commands whose handler actually ran.", &d.executed)
	reg.AttachCounter(name("lake_daemon_redelivered_total"), "Commands answered from the exactly-once journal.", &d.redelivered)
	reg.AttachCounter(name("lake_daemon_corrupt_frames_total"), "Undecodable command frames lakeD dropped.", &d.corruptFrames)
	d.gpuUtil = reg.Gauge(name("lake_nvml_gpu_util"), "Last NVML GPU utilization sample served (percent).")
	d.memUtil = reg.Gauge(name("lake_nvml_mem_util"), "Last NVML memory utilization sample served (percent).")
}

// SetFlightRecorder attaches the flight recorder. Must be called during
// runtime construction, before any traffic.
func (d *Daemon) SetFlightRecorder(rec *flightrec.Recorder) {
	d.rec = rec
}

// maxErrlog bounds the daemon's attribution log.
const maxErrlog = 64

// pumpScratch is PumpOne's reusable working state, guarded by pumpMu. The
// decoded command's Blob aliases the received frame (valid until the next
// receive — the command is fully executed before then); everything else is
// daemon-owned storage whose capacity survives across pumps.
type pumpScratch struct {
	cmd  Command
	resp Response
	// out is the outbound response frame buffer.
	out []byte
	// names interns command names so steady-state decode never allocates a
	// string (the wire vocabulary is a small fixed set of model names and
	// kernel symbols).
	names map[string]string
	// Batch demux state for batchedInfer.
	bt         Batch
	perRes     []cuda.Result
	admitted   []int
	launchArgs [3]uint64
}

// NewDaemon creates a daemon serving the given CUDA API and shared region
// over a boundary channel.
func NewDaemon(api *cuda.API, region *shm.Region, tr boundary.Channel) *Daemon {
	d := &Daemon{
		api:       api,
		region:    region,
		tr:        tr,
		journal:   newJournal(0),
		highlevel: make(map[string]HighLevelHandler),
	}
	d.scratch.names = make(map[string]string, maxInternedNames)
	return d
}

// InjectFaults attaches a fault plane whose CrashNow decisions can crash
// the daemon while serving commands. A nil plane detaches.
func (d *Daemon) InjectFaults(p *faults.Plane) {
	d.mu.Lock()
	d.fault = p
	d.mu.Unlock()
}

// InjectCrash schedules a deterministic crash on the next served command:
// before its execution (the command is lost) or after (the response is
// lost, proving redelivery dedup). Tests and the chaos harness use it for
// targeted crash placement.
func (d *Daemon) InjectCrash(afterExec bool) {
	d.mu.Lock()
	if afterExec {
		d.pendingCrash = faults.CrashAfterExec
	} else {
		d.pendingCrash = faults.CrashBeforeExec
	}
	d.mu.Unlock()
}

// Crashed reports whether the daemon process is down. A crashed daemon
// consumes nothing from the channel: commands queue up (or the client's
// sends eventually fail) until the supervisor restarts it.
func (d *Daemon) Crashed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed
}

// crash marks the daemon dead, recording the crash point for attribution.
// The flight recorder captures the moment (and dumps itself: the rings are
// the crash artifact, like a kernel's ftrace buffer after an oops).
func (d *Daemon) crash(at faults.CrashPoint, cmd *Command) {
	d.mu.Lock()
	d.crashed = true
	d.logErrLocked(fmt.Sprintf("lakeD: %s while serving %s seq=%d", at, cmd.API, cmd.Seq))
	d.mu.Unlock()
	d.rec.Emit(flightrec.DomainDaemon, flightrec.EvCrash,
		cmd.TraceID, cmd.Seq, 0, uint64(at), uint64(cmd.API), 0)
	d.rec.TriggerDump("daemon-crash")
}

// Restart models the supervisor relaunching lakeD and re-attaching its
// state: the CUDA contexts and allocations live in the driver and survive,
// the lakeShm mapping is re-established over the same pinned region, and
// the sequence journal is recovered from its shm-backed slice — so
// redelivered in-flight commands still deduplicate across the crash.
func (d *Daemon) Restart() {
	d.mu.Lock()
	d.crashed = false
	d.pendingCrash = faults.CrashNone
	d.restarts++
	gen := d.generation + 1
	d.generation = gen
	d.mu.Unlock()
	d.rec.Emit(flightrec.DomainDaemon, flightrec.EvRestart, 0, 0, 0, gen, 0, 0)
}

// Restarts counts supervisor restarts; Generation is the current restart
// epoch (0 for the original process).
func (d *Daemon) Restarts() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.restarts
}

// Generation returns the daemon's restart epoch.
func (d *Daemon) Generation() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.generation
}

// Executed counts commands whose handler actually ran — journal-served
// redeliveries are excluded, so in an exactly-once run Executed equals the
// number of distinct client calls that completed.
func (d *Daemon) Executed() int64 { return d.executed.Value() }

// Redelivered counts commands answered from the sequence journal instead
// of being re-executed.
func (d *Daemon) Redelivered() int64 { return d.redelivered.Value() }

// Errors returns the daemon's recent failure log. Every entry carries the
// command name and sequence number, so chaos-test failures are
// attributable to a specific remoted call.
func (d *Daemon) Errors() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, len(d.errlog))
	copy(out, d.errlog)
	return out
}

func (d *Daemon) logErrLocked(msg string) {
	if len(d.errlog) >= maxErrlog {
		d.errlog = d.errlog[1:]
	}
	d.errlog = append(d.errlog, msg)
}

func (d *Daemon) logErr(msg string) {
	d.mu.Lock()
	d.logErrLocked(msg)
	d.mu.Unlock()
}

// Handled reports the number of commands served.
func (d *Daemon) Handled() int64 { return d.handled.Value() }

// RegisterHighLevel installs a custom high-level API under name. Adding an
// API requires exactly what §4.4 describes: a prototype on the lakeLib side
// (Lib.CallHighLevel) and an implementation here.
func (d *Daemon) RegisterHighLevel(name string, h HighLevelHandler) {
	if name == "" || h == nil {
		panic("remoting: RegisterHighLevel requires a name and handler")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.highlevel[name] = h
}

// PumpOne receives and serves a single pending command, sending its
// response back through the transport. It reports whether a command was
// served. A crashed daemon serves nothing — the process is down — until
// the supervisor restarts it.
//
// Exactly-once protocol: before any response is sent, the (seq, response)
// pair is recorded in the sequence journal. A frame whose sequence is
// already journaled — a client retry after a lost response, or a channel
// duplicate — is answered from the journal without re-executing.
func (d *Daemon) PumpOne() bool {
	if d.Crashed() {
		return false
	}
	d.pumpMu.Lock()
	defer d.pumpMu.Unlock()
	frame, ok := d.tr.RecvInUser()
	if !ok {
		return false
	}
	cmd := &d.scratch.cmd
	if err := DecodeCommandInto(cmd, d.scratch.names, frame); err != nil {
		// Undecodable frame: no trustworthy sequence to journal. Answer
		// with a seq-0 error the client demux will discard, forcing a
		// clean retransmit of the command.
		d.corruptFrames.Inc()
		d.logErr(fmt.Sprintf("lakeD: corrupt frame (%d bytes): %v", len(frame), err))
		resp := &d.scratch.resp
		resp.Seq = 0
		resp.Result = int32(cuda.ErrInvalidValue)
		resp.Vals = resp.Vals[:0]
		resp.Blob = resp.Blob[:0]
		d.respond(d.mustAppendResponse(resp))
		return true
	}
	d.rec.Emit(flightrec.DomainDaemon, flightrec.EvDispatch,
		cmd.TraceID, cmd.Seq, 0, uint64(cmd.API), uint64(len(frame)), 0)
	if cached, dup := d.journal.lookup(cmd.Seq); dup {
		d.redelivered.Inc()
		d.rec.Emit(flightrec.DomainDaemon, flightrec.EvJournalHit,
			cmd.TraceID, cmd.Seq, 0, uint64(cmd.API), 0, 0)
		d.respond(cached)
		// The journaled response answers a redelivery whose original send was
		// lost; this respond completes the call's daemon-side chain.
		d.rec.Emit(flightrec.DomainDaemon, flightrec.EvRespond,
			cmd.TraceID, cmd.Seq, 0, uint64(cmd.API), uint64(len(cached)), 0)
		return true
	}
	switch d.crashPoint() {
	case faults.CrashBeforeExec:
		// The process dies holding the consumed command: it never
		// executes and the client must redeliver it.
		d.crash(faults.CrashBeforeExec, cmd)
		return false
	case faults.CrashAfterExec:
		// The command executes and its response is journaled (the journal
		// write is part of serving, in the shm-backed slice), but the
		// process dies before the response reaches the socket. The
		// client's redelivery is answered from the journal — never
		// re-executed.
		out := d.mustAppendResponse(d.handleCmd(cmd))
		d.journal.record(cmd.Seq, out)
		d.crash(faults.CrashAfterExec, cmd)
		return false
	}
	out := d.mustAppendResponse(d.handleCmd(cmd))
	d.journal.record(cmd.Seq, out)
	d.respond(out)
	d.rec.Emit(flightrec.DomainDaemon, flightrec.EvRespond,
		cmd.TraceID, cmd.Seq, 0, uint64(cmd.API), uint64(len(out)), 0)
	return true
}

// crashPoint consumes any pending injected crash, else asks the fault
// plane.
func (d *Daemon) crashPoint() faults.CrashPoint {
	d.mu.Lock()
	p := d.pendingCrash
	d.pendingCrash = faults.CrashNone
	fault := d.fault
	d.mu.Unlock()
	if p != faults.CrashNone {
		return p
	}
	return fault.CrashNow()
}

// respond sends a response frame, tolerating a transport closed mid-flight
// (a dead socket drops the bytes).
func (d *Daemon) respond(out []byte) {
	if err := d.tr.SendToKernel(out); err != nil {
		return
	}
	d.handled.Inc()
}

// mustAppendResponse encodes a response the daemon built itself into the
// pump's reusable outbound buffer; failure is a bug, not an input
// condition. The returned frame is valid until the next pump (the journal
// copies it on record; the transport copies it on send).
func (d *Daemon) mustAppendResponse(resp *Response) []byte {
	out, err := AppendResponse(d.scratch.out[:0], resp)
	if err != nil {
		panic(fmt.Sprintf("remoting: marshal response: %v", err))
	}
	d.scratch.out = out
	return out
}

// handleCmd executes one decoded command, surviving handler panics and
// logging every failure with the command name and sequence so chaos-test
// failures are attributable.
func (d *Daemon) handleCmd(cmd *Command) (resp *Response) {
	// The daemon is a long-lived trusted process (§6.1); a buggy
	// high-level handler or device kernel must fail the one request, not
	// the daemon. Mirrors the sandboxing posture the paper suggests.
	d.rec.BeginExec(cmd.TraceID)
	d.rec.Emit(flightrec.DomainDaemon, flightrec.EvExecStart,
		cmd.TraceID, cmd.Seq, 0, uint64(cmd.API), 0, 0)
	defer func() {
		if r := recover(); r != nil {
			d.logErr(fmt.Sprintf("lakeD: panic in %s seq=%d: %v", cmd.API, cmd.Seq, r))
			resp = &d.scratch.resp
			resp.Seq = cmd.Seq
			resp.Result = int32(cuda.ErrUnknown)
			resp.Vals = resp.Vals[:0]
			resp.Blob = resp.Blob[:0]
		}
		d.rec.Emit(flightrec.DomainDaemon, flightrec.EvExecEnd,
			cmd.TraceID, cmd.Seq, 0, uint64(cmd.API), uint64(uint32(resp.Result)), 0)
		d.rec.EndExec()
	}()
	if cmd.API != APIPing {
		// Heartbeats are supervision traffic, not workload: Executed stays
		// comparable to the number of distinct client calls.
		d.executed.Inc()
	}
	resp = d.execute(cmd)
	if r := cuda.Result(resp.Result); r != cuda.Success {
		d.logErr(fmt.Sprintf("lakeD: %s seq=%d: %s", cmd.API, cmd.Seq, r))
	}
	return resp
}

// arg returns cmd.Args[i] or 0 when absent; handlers validate semantics.
func arg(cmd *Command, i int) uint64 {
	if i < len(cmd.Args) {
		return cmd.Args[i]
	}
	return 0
}

// execute serves one decoded command into the pump's scratch response.
// Every case appends into the response's recycled Vals/Blob storage, so a
// warmed daemon builds responses without heap allocation.
func (d *Daemon) execute(cmd *Command) *Response {
	resp := &d.scratch.resp
	resp.Seq = cmd.Seq
	resp.Result = int32(cuda.Success)
	resp.Vals = resp.Vals[:0]
	resp.Blob = resp.Blob[:0]
	switch cmd.API {
	case APICuInit:
		resp.Result = int32(d.api.Init())

	case APICuDeviceGetCount:
		n, r := d.api.DeviceGetCount()
		resp.Result = int32(r)
		resp.Vals = append(resp.Vals, uint64(n))

	case APICuDeviceGetName:
		name, r := d.api.DeviceGetName()
		resp.Result = int32(r)
		resp.Blob = append(resp.Blob, name...)

	case APICuCtxCreate:
		// Optional arg 0 pins the context to device ordinal-1; 0 (or no
		// args, the single-device wire shape) lets placement choose.
		var h uint64
		var r cuda.Result
		if ord := arg(cmd, 0); ord > 0 {
			h, r = d.api.CtxCreateOnDevice(cmd.Name, int(ord-1))
		} else {
			h, r = d.api.CtxCreate(cmd.Name)
		}
		resp.Result = int32(r)
		resp.Vals = append(resp.Vals, h)

	case APICuCtxDestroy:
		resp.Result = int32(d.api.CtxDestroy(arg(cmd, 0)))

	case APICuMemAlloc:
		// Optional arg 1 pins the device ordinal; absent (the single-device
		// wire shape) allocates in the current context, per cuMemAlloc.
		var ptr gpu.DevPtr
		var r cuda.Result
		if len(cmd.Args) >= 2 {
			ptr, r = d.api.MemAllocOnDevice(int64(arg(cmd, 0)), int(arg(cmd, 1)))
		} else {
			ptr, r = d.api.MemAlloc(int64(arg(cmd, 0)))
		}
		resp.Result = int32(r)
		resp.Vals = append(resp.Vals, uint64(ptr))

	case APICuMemFree:
		resp.Result = int32(d.api.MemFree(gpu.DevPtr(arg(cmd, 0))))

	case APICuMemcpyHtoD:
		resp.Result = int32(d.memcpyHtoD(cmd))

	case APICuMemcpyDtoH:
		d.memcpyDtoH(cmd, resp)

	case APICuModuleLoad:
		h, r := d.api.ModuleLoad(cmd.Name)
		resp.Result = int32(r)
		resp.Vals = append(resp.Vals, h)

	case APICuModuleGetFunction:
		h, r := d.api.ModuleGetFunction(arg(cmd, 0), cmd.Name)
		resp.Result = int32(r)
		resp.Vals = append(resp.Vals, h)

	case APICuLaunchKernel:
		if len(cmd.Args) < 2 {
			resp.Result = int32(cuda.ErrInvalidValue)
			break
		}
		resp.Result = int32(d.api.LaunchKernel(cmd.Args[0], cmd.Args[1], cmd.Args[2:]))

	case APICuCtxSynchronize:
		resp.Result = int32(d.api.CtxSynchronize(arg(cmd, 0)))

	case APINvmlUtilization:
		// Aggregated over the pool (identical to the single-device reading
		// when the pool has one device).
		u := nvml.AggregateUtilizationRates(d.api.Devices())
		d.gpuUtil.Set(int64(u.GPU))
		d.memUtil.Set(int64(u.Memory))
		resp.Vals = append(resp.Vals, uint64(u.GPU), uint64(u.Memory))

	case APINvmlDeviceUtilization:
		devs := d.api.Devices()
		ord := int(arg(cmd, 0))
		if ord < 0 || ord >= len(devs) {
			resp.Result = int32(cuda.ErrInvalidValue)
			break
		}
		u := nvml.DeviceGetUtilizationRates(devs[ord])
		resp.Vals = append(resp.Vals, uint64(u.GPU), uint64(u.Memory))

	case APICuMemGetInfo:
		free, total, r := d.api.MemGetInfo()
		resp.Result = int32(r)
		resp.Vals = append(resp.Vals, uint64(free), uint64(total))

	case APIBatchedInfer:
		d.batchedInfer(cmd, resp)

	case APIPing:
		// Heartbeat (supervision): reports the restart generation and the
		// served-command count, letting the supervisor detect silent
		// restarts and confirm liveness after ReAttached.
		resp.Vals = append(resp.Vals, d.Generation(), uint64(d.handled.Value()))

	case APIHighLevel:
		d.mu.Lock()
		h, ok := d.highlevel[cmd.Name]
		d.mu.Unlock()
		if !ok {
			resp.Result = int32(cuda.ErrNotFound)
			break
		}
		vals, blob, r := h(d.api, d.region, cmd.Args, cmd.Blob)
		resp.Result = int32(r)
		resp.Vals = append(resp.Vals, vals...)
		resp.Blob = append(resp.Blob, blob...)

	default:
		resp.Result = int32(cuda.ErrInvalidValue)
	}
	return resp
}

// memcpyHtoD supports both data paths of §4.1: zero-copy (source is a
// lakeShm offset, args = [dst, shmOff, len, 1]) and inline (source rode in
// cmd.Blob, args = [dst, 0, len, 0], the extra-copy path).
func (d *Daemon) memcpyHtoD(cmd *Command) cuda.Result {
	if len(cmd.Args) < 4 {
		return cuda.ErrInvalidValue
	}
	dst := gpu.DevPtr(cmd.Args[0])
	length := int64(cmd.Args[2])
	if length < 0 || length > maxBlob {
		return cuda.ErrInvalidValue
	}
	var src []byte
	if cmd.Args[3] == 1 {
		view, err := d.region.At(int64(cmd.Args[1]), length)
		if err != nil {
			return cuda.ErrInvalidValue
		}
		src = view
	} else {
		if int64(len(cmd.Blob)) < length {
			return cuda.ErrInvalidValue
		}
		src = cmd.Blob[:length]
	}
	return d.api.MemcpyHtoD(dst, src)
}

// memcpyDtoH mirrors memcpyHtoD for device-to-host copies: args =
// [src, shmOff, len, viaShm]. The inline return path reuses the scratch
// response's Blob capacity for the copied-back payload.
func (d *Daemon) memcpyDtoH(cmd *Command, resp *Response) {
	if len(cmd.Args) < 4 {
		resp.Result = int32(cuda.ErrInvalidValue)
		return
	}
	src := gpu.DevPtr(cmd.Args[0])
	length := int64(cmd.Args[2])
	if length < 0 || length > maxBlob {
		resp.Result = int32(cuda.ErrInvalidValue)
		return
	}
	if cmd.Args[3] == 1 {
		view, err := d.region.At(int64(cmd.Args[1]), length)
		if err != nil {
			resp.Result = int32(cuda.ErrInvalidValue)
			return
		}
		resp.Result = int32(d.api.MemcpyDtoH(view, src))
		return
	}
	if int64(cap(resp.Blob)) < length {
		resp.Blob = make([]byte, length)
	} else {
		resp.Blob = resp.Blob[:length]
	}
	r := d.api.MemcpyDtoH(resp.Blob, src)
	resp.Result = int32(r)
	if r != cuda.Success {
		resp.Blob = resp.Blob[:0]
	}
}
