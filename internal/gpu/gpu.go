// Package gpu models the accelerator that LAKE exposes to kernel space.
//
// The paper's testbed uses NVIDIA A100 GPUs; this package replaces the
// hardware with a functional + analytic model. Functional: device memory is
// real host memory and launched kernels run real Go functions against it, so
// every workload computes correct results. Analytic: each operation advances
// the shared virtual clock by a modeled duration — launch overhead, PCIe
// transfer time, compute time derived from a FLOP budget — calibrated against
// the micro-measurements the paper reports (§7.1, Fig 8). The model is what
// makes accelerator profitability, the crossover points of Table 3, and
// contention dynamics (Figs 1, 13) reproducible without the hardware.
//
// Contention arises naturally: the device executes one kernel at a time, so
// a launch issued while the device is busy queues until the device frees up,
// and per-client busy accounting feeds the NVML-style utilization queries
// that LAKE's contention policies sample.
package gpu

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lakego/internal/flightrec"
	"lakego/internal/telemetry"
	"lakego/internal/vtime"
)

// DevPtr is an opaque device memory address, as returned by allocation.
// Address 0 is never valid.
//
// In a multi-device pool the top DevPtrOrdinalShift bits carry the owning
// device's ordinal, so pointers are globally unique and self-describing:
// any layer holding only a DevPtr (the daemon's batched-infer dispatch, the
// CUDA API's copy routing) can recover which device backs it. Device 0's
// pointers are bit-identical to the single-device layout.
type DevPtr uint64

// DevPtrOrdinalShift is the bit position of the device ordinal inside a
// DevPtr; the low 48 bits are the per-device address space (≫ any modeled
// device memory).
const DevPtrOrdinalShift = 48

// MaxDevices bounds pool size (the ordinal must fit above the shift).
const MaxDevices = 1 << (64 - DevPtrOrdinalShift)

// DevPtrOrdinal extracts the owning device's ordinal from a pointer.
func DevPtrOrdinal(p DevPtr) int { return int(uint64(p) >> DevPtrOrdinalShift) }

// ErrOutOfMemory is returned when device memory is exhausted.
var ErrOutOfMemory = errors.New("gpu: out of device memory")

// ErrBadPtr is returned for operations on unallocated device pointers.
var ErrBadPtr = errors.New("gpu: invalid device pointer")

// Spec describes the modeled hardware. The defaults approximate the paper's
// A100 testbed as seen from kernel space through LAKE.
type Spec struct {
	// Name is reported by identification queries.
	Name string
	// MemoryBytes is total device memory.
	MemoryBytes int64
	// LaunchOverhead is the fixed cost of one kernel launch (driver +
	// hardware dispatch).
	LaunchOverhead time.Duration
	// PCIeLatency is the fixed per-transfer DMA setup cost.
	PCIeLatency time.Duration
	// PCIeBytesPerSec is effective host<->device copy bandwidth.
	PCIeBytesPerSec float64
	// GFLOPS is effective compute throughput for the small inference
	// kernels kernel subsystems launch (far below peak; small kernels
	// cannot saturate an A100).
	GFLOPS float64
}

// DefaultSpec returns the A100-like model used across the evaluation.
//
// Calibration: launch overhead and transfer constants are fitted so the
// LinnOS batch sweep (Fig 8) crosses over at batch 8 with GPU(batch=8) ≈
// 58 µs end-to-end including remoting, as §7.1 reports.
func DefaultSpec() Spec {
	return Spec{
		Name:            "Simulated-A100-SXM4-40GB",
		MemoryBytes:     40 << 30,
		LaunchOverhead:  5 * time.Microsecond,
		PCIeLatency:     7 * time.Microsecond,
		PCIeBytesPerSec: 12e9, // effective, small-transfer regime
		GFLOPS:          4500,
	}
}

type busySpan struct {
	client     string
	start, end time.Duration
}

// Device is one simulated accelerator. All methods are safe for concurrent
// use.
type Device struct {
	spec    Spec
	clock   *vtime.Clock
	ordinal int

	mu        sync.Mutex
	mem       map[DevPtr][]byte
	next      DevPtr
	used      int64
	busyUntil time.Duration
	// spans is a circular buffer of the busy intervals a Utilization window
	// can still reach: n live entries from head, oldest first. occupyLocked
	// is its only writer; len(spans) is a power of two (or zero).
	spans   []busySpan
	head, n int
	// maxWindow is the largest window any Utilization query has asked for;
	// the span-retire horizon tracks it so long-window queries stay accurate.
	maxWindow time.Duration

	copies atomic.Int64 // host<->device transfers (copyTime's count, kept with telemetry off)
	// launches and copyBytes are what Launches/Copies report and what the
	// registry exports; the histograms are nil with telemetry disabled.
	launches, copyBytes telemetry.Counter
	execTime            *telemetry.Histogram // modeled cost, excluding queueing
	queueDelay          *telemetry.Histogram // wait for the device to go idle
	copyTime            *telemetry.Histogram // DMA duration: copy-engine occupancy

	// rec receives gpu-domain events, tagged with the trace ID of the
	// command lakeD is currently executing (Recorder.ExecTrace); nil-safe.
	rec *flightrec.Recorder
}

// Instrument declares the device's series on reg. Must be called during
// runtime construction, before any traffic.
func (d *Device) Instrument(reg *telemetry.Registry, name telemetry.Namer) {
	reg.AttachCounter(name("lake_gpu_launches_total"), "Kernels executed on the device model.", &d.launches)
	reg.AttachCounter(name("lake_gpu_copy_bytes_total"), "Bytes moved across the modeled PCIe link.", &d.copyBytes)
	d.execTime = reg.Histogram(name("lake_gpu_exec_ns"), "Per-operation modeled execution cost (virtual ns), excluding queueing.", telemetry.DefaultLatencyBuckets())
	d.queueDelay = reg.Histogram(name("lake_gpu_queue_delay_ns"), "Per-operation contention delay (virtual ns) waiting for the device.", telemetry.DefaultLatencyBuckets())
	d.copyTime = reg.Histogram(name("lake_gpu_copy_ns"), "Host<->device DMA durations (virtual ns) — copy-engine occupancy.", telemetry.DefaultLatencyBuckets())
}

// SetFlightRecorder attaches the flight recorder. Must be called during
// runtime construction, before any traffic.
func (d *Device) SetFlightRecorder(rec *flightrec.Recorder) {
	d.rec = rec
}

// ObserveCopy records one host<->device DMA of n bytes taking d (virtual
// time). The CUDA API layer calls it when charging transfers.
func (d *Device) ObserveCopy(n int64, took time.Duration) {
	d.copies.Add(1)
	d.copyBytes.Add(n)
	d.copyTime.ObserveDuration(took)
	d.rec.Emit(flightrec.DomainGPU, flightrec.EvCopy,
		d.rec.ExecTrace(), 0, d.ordinal, uint64(n), uint64(took), 0)
}

// Copies reports the device's DMA accounting: number of host<->device
// transfers and total bytes moved. Pool-level aggregated queries read it.
func (d *Device) Copies() (n, bytes int64) {
	return d.copies.Load(), d.copyBytes.Value()
}

// New creates a device with the given spec on the shared clock.
func New(spec Spec, clock *vtime.Clock) *Device {
	return NewIndexed(spec, clock, 0)
}

// NewIndexed creates device number ordinal of a multi-device pool. The
// ordinal is stamped into every DevPtr the device allocates (see DevPtr);
// ordinal 0 reproduces New's single-device pointer layout exactly.
func NewIndexed(spec Spec, clock *vtime.Clock, ordinal int) *Device {
	if ordinal < 0 || ordinal >= MaxDevices {
		panic(fmt.Sprintf("gpu: device ordinal %d out of range [0, %d)", ordinal, MaxDevices))
	}
	return &Device{
		spec:    spec,
		clock:   clock,
		ordinal: ordinal,
		mem:     make(map[DevPtr][]byte),
		next:    DevPtr(uint64(ordinal)<<DevPtrOrdinalShift | 0x1000),
	}
}

// Spec returns the device's hardware model.
func (d *Device) Spec() Spec { return d.spec }

// Ordinal returns the device's pool index (0 for a single device).
func (d *Device) Ordinal() int { return d.ordinal }

// Clock returns the virtual clock the device advances.
func (d *Device) Clock() *vtime.Clock { return d.clock }

// Launches returns the total number of kernels executed.
func (d *Device) Launches() int64 { return d.launches.Value() }

// MemUsed returns currently allocated device memory in bytes.
func (d *Device) MemUsed() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// Alloc reserves size bytes of device memory.
func (d *Device) Alloc(size int64) (DevPtr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("gpu: alloc size %d must be positive", size)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.used+size > d.spec.MemoryBytes {
		return 0, fmt.Errorf("%w: %d requested, %d free",
			ErrOutOfMemory, size, d.spec.MemoryBytes-d.used)
	}
	ptr := d.next
	d.next += DevPtr(size) + 0x100 // pad so adjacent buffers never alias
	d.mem[ptr] = make([]byte, size)
	d.used += size
	return ptr, nil
}

// Free releases a device allocation.
func (d *Device) Free(ptr DevPtr) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	buf, ok := d.mem[ptr]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrBadPtr, ptr)
	}
	d.used -= int64(len(buf))
	delete(d.mem, ptr)
	return nil
}

// Bytes returns the backing storage of a device allocation so kernels and
// copy operations can operate on real data. Callers must not retain the
// slice past Free.
func (d *Device) Bytes(ptr DevPtr) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	buf, ok := d.mem[ptr]
	if !ok {
		return nil, fmt.Errorf("%w: %#x", ErrBadPtr, ptr)
	}
	return buf, nil
}

// TransferTime models one host<->device DMA of n bytes.
func (d *Device) TransferTime(n int64) time.Duration {
	if n <= 0 {
		return d.spec.PCIeLatency
	}
	return d.spec.PCIeLatency +
		time.Duration(float64(n)/d.spec.PCIeBytesPerSec*float64(time.Second))
}

// ComputeTime converts a kernel's FLOP budget to modeled execution time.
func (d *Device) ComputeTime(flops float64) time.Duration {
	if flops <= 0 {
		return 0
	}
	return time.Duration(flops / (d.spec.GFLOPS * 1e9) * float64(time.Second))
}

// Execute runs a device operation of the given modeled cost on behalf of
// client, advancing the virtual clock past any queueing delay (contention
// with other clients) plus the operation itself, then runs fn (which may be
// nil for timing-only operations). It returns the operation's completion
// time.
func (d *Device) Execute(client string, cost time.Duration, fn func()) time.Duration {
	return d.Launch(client, 0, cost, fn)
}

// Launch is Execute for a kernel launch: the EvExec it records carries the
// launched function handle.
func (d *Device) Launch(client string, handle uint64, cost time.Duration, fn func()) time.Duration {
	d.mu.Lock()
	now := d.clock.Now()
	start := now
	if d.busyUntil > start {
		start = d.busyUntil
	}
	end := start + cost
	d.busyUntil = end
	d.occupyLocked(client, start, end)
	d.mu.Unlock()

	d.launches.Inc()
	d.execTime.ObserveDuration(cost)
	d.queueDelay.ObserveDuration(start - now)
	d.rec.Emit(flightrec.DomainGPU, flightrec.EvExec,
		d.rec.ExecTrace(), 0, d.ordinal, uint64(cost), uint64(start-now), handle)

	d.clock.AdvanceTo(end)
	if fn != nil {
		fn()
	}
	return end
}

// OccupyUntil marks the device busy for client until t without running
// anything. Fluid-model experiments (the Fig 1/13 contention timelines) use
// it to inject a competing workload's device occupancy.
func (d *Device) OccupyUntil(client string, t time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	start := d.clock.Now()
	if d.busyUntil > start {
		start = d.busyUntil
	}
	if t < start {
		return
	}
	d.busyUntil = t
	d.occupyLocked(client, start, t)
}

// OccupySpan records client occupancy over an arbitrary [start, end)
// interval without running anything. Scenario drivers use it to lay down
// interleaved busy slices within a timestep so trailing-window utilization
// queries observe the intended duty cycle.
func (d *Device) OccupySpan(client string, start, end time.Duration) {
	if end <= start {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if end > d.busyUntil {
		d.busyUntil = end
	}
	d.occupyLocked(client, start, end)
}

// BusyUntil reports the virtual instant the device next becomes idle.
func (d *Device) BusyUntil() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.busyUntil
}

const utilizationHistory = 5 * time.Second

// occupyLocked records client's occupancy of [start, end) and retires the
// spans that ended before the utilisation horizon. Retiring first means a
// caller whose clock is past the horizon reuses a freed slot, so the backing
// array grows only while the window is still filling.
func (d *Device) occupyLocked(client string, start, end time.Duration) {
	// The horizon must cover the widest window any caller samples: retiring
	// at a fixed history while a wider Utilization window is in use would
	// silently undercount busy time and flip the Fig 3 policy.
	horizon := utilizationHistory
	if d.maxWindow > horizon {
		horizon = d.maxWindow
	}
	cutoff := end - horizon
	for d.n > 0 && d.spans[d.head].end < cutoff {
		d.head = (d.head + 1) & (len(d.spans) - 1)
		d.n--
	}
	if d.n == len(d.spans) {
		grown := make([]busySpan, max(16, 2*len(d.spans)))
		k := copy(grown, d.spans[d.head:])
		copy(grown[k:], d.spans[:d.head])
		d.spans, d.head = grown, 0
	}
	d.spans[(d.head+d.n)&(len(d.spans)-1)] = busySpan{client: client, start: start, end: end}
	d.n++
}

// Utilization reports the fraction of the trailing window during which the
// device was busy, optionally filtered to one client (empty string = all).
// This is the signal the NVML shim exposes to contention policies.
func (d *Device) Utilization(window time.Duration, client string) float64 {
	if window <= 0 {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if window > d.maxWindow {
		// Remember the widest requested window (pre-clamp) so future prunes
		// keep enough history to answer it accurately.
		d.maxWindow = window
	}
	now := d.clock.Now()
	from := now - window
	if from < 0 {
		from = 0
		window = now
		if window == 0 {
			return 0
		}
	}
	var busy time.Duration
	for k := 0; k < d.n; k++ {
		s := &d.spans[(d.head+k)&(len(d.spans)-1)]
		if s.end <= from || (client != "" && s.client != client) {
			continue
		}
		st, en := s.start, s.end
		if st < from {
			st = from
		}
		if en > now {
			en = now
		}
		if en > st {
			busy += en - st
		}
	}
	u := float64(busy) / float64(window)
	if u > 1 {
		u = 1
	}
	return u
}
