// Package cuda implements the CUDA-driver-style API that lakeD realizes in
// user space and lakeLib remotes into kernel space (§4: "LAKE uses API
// remoting to provide kernel space applications with the vendor-supported
// accelerator interfaces (e.g. CUDA APIs)").
//
// The surface mirrors the driver API the paper's prototype exposes —
// contexts, device memory, host<->device copies, module/function lookup and
// kernel launch — implemented against the gpu.Device model. Kernels are
// registered Go functions: workloads register e.g. an "mlp_forward" kernel,
// and launching it runs the real computation against device memory while the
// device model charges launch overhead plus a FLOP-derived compute time.
package cuda

import (
	"fmt"
	"sync"
	"time"

	"lakego/internal/flightrec"
	"lakego/internal/gpu"
)

// Kernel is a device function loadable via ModuleGetFunction and runnable
// via LaunchKernel. Args follow the CUDA convention of untyped 64-bit
// values: device pointers and scalars, interpretation is the kernel's.
type Kernel struct {
	// Name is the symbol ModuleGetFunction resolves.
	Name string
	// Flops returns the kernel's compute budget for a launch with args;
	// the device model converts it to execution time.
	Flops func(args []uint64) float64
	// Body performs the actual computation against device memory.
	// It may be nil for timing-only kernels.
	Body func(dev *gpu.Device, args []uint64) error
}

// PlaceFunc chooses the device ordinal a new context binds to; the pool's
// placement policy provides it. A nil PlaceFunc always picks device 0.
type PlaceFunc func(client string) int

// ctxInfo binds a context handle to its client tag (for utilization
// attribution) and its placed device.
type ctxInfo struct {
	client string
	dev    *gpu.Device
}

// API is one in-process realization of the driver API, bound to one or more
// devices. lakeD owns one; tests may use it directly. All methods are safe
// for concurrent use.
//
// Multi-device semantics: contexts bind to a pool-selected device at
// creation (CtxCreate consults the PlaceFunc; CtxCreateOnDevice pins), and
// everything flowing through a context — launches, synchronize — runs on
// that device. Memory operations are routed by the ordinal tag
// every DevPtr carries, so copies always hit the owning device. Calls that
// take a pointer route by its tag; MemAlloc without an explicit ordinal
// follows CUDA's current-context rule — cuCtxCreate makes the new context
// current, so plain allocations land on the most recently created context's
// device (device 0 until any context exists, preserving single-device
// behavior bit-for-bit).
type API struct {
	devs  []*gpu.Device
	place PlaceFunc
	// rec receives gpu-domain launch events; nil-safe.
	rec *flightrec.Recorder

	mu       sync.Mutex
	inited   bool
	curDev   int // device of the current (most recently created) context
	nextCtx  uint64
	ctxs     map[uint64]ctxInfo
	nextFn   uint64
	fns      map[uint64]*Kernel
	kernels  map[string]*Kernel
	modules  map[string]uint64 // module path -> handle (flat namespace)
	nextMod  uint64
	modNames map[uint64]string
}

// NewAPI returns an API bound to a single device with no kernels
// registered.
func NewAPI(dev *gpu.Device) *API {
	return NewMultiAPI([]*gpu.Device{dev}, nil)
}

// NewMultiAPI returns an API over a device pool. Device i must have
// ordinal i (gpupool.New guarantees this); place picks the device for each
// new context (nil = always device 0).
func NewMultiAPI(devs []*gpu.Device, place PlaceFunc) *API {
	if len(devs) == 0 {
		panic("cuda: NewMultiAPI requires at least one device")
	}
	return &API{
		devs:     devs,
		place:    place,
		nextCtx:  1,
		ctxs:     make(map[uint64]ctxInfo),
		nextFn:   1,
		fns:      make(map[uint64]*Kernel),
		kernels:  make(map[string]*Kernel),
		modules:  make(map[string]uint64),
		nextMod:  1,
		modNames: make(map[uint64]string),
	}
}

// SetFlightRecorder attaches the flight recorder. Must be called during
// runtime construction, before any traffic.
func (a *API) SetFlightRecorder(rec *flightrec.Recorder) {
	a.rec = rec
}

// Device returns the primary (ordinal 0) device model.
func (a *API) Device() *gpu.Device { return a.devs[0] }

// Devices returns all pool devices in ordinal order.
func (a *API) Devices() []*gpu.Device { return a.devs }

// devForPtr routes a device pointer to its owning device via the ordinal
// tag, or nil if the tag is out of range for this pool.
func (a *API) devForPtr(p gpu.DevPtr) *gpu.Device {
	ord := gpu.DevPtrOrdinal(p)
	if ord < 0 || ord >= len(a.devs) {
		return nil
	}
	return a.devs[ord]
}

// RegisterKernel installs a kernel so ModuleGetFunction can resolve it.
// Registering a nil kernel or one without a name panics: kernels are wired
// at program start, not at runtime.
func (a *API) RegisterKernel(k *Kernel) {
	if k == nil || k.Name == "" {
		panic("cuda: RegisterKernel requires a named kernel")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.kernels[k.Name] = k
}

// Init initializes the driver. Every other call requires it, mirroring
// cuInit.
func (a *API) Init() Result {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.inited = true
	return Success
}

func (a *API) checkInit() Result {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.inited {
		return ErrNotInitialized
	}
	return Success
}

// DeviceGetCount mirrors cuDeviceGetCount: the pool size.
func (a *API) DeviceGetCount() (int, Result) {
	if r := a.checkInit(); r != Success {
		return 0, r
	}
	return len(a.devs), Success
}

// DeviceGetName mirrors cuDeviceGetName (for the primary device).
func (a *API) DeviceGetName() (string, Result) {
	if r := a.checkInit(); r != Success {
		return "", r
	}
	return a.devs[0].Spec().Name, Success
}

// CtxCreate creates a context tagged with client, which attributes the
// context's device occupancy in utilization queries (the signal contention
// policies consume). The context binds to the device the placement
// function selects.
func (a *API) CtxCreate(client string) (uint64, Result) {
	ord := 0
	if a.place != nil {
		ord = a.place(client)
	}
	return a.CtxCreateOnDevice(client, ord)
}

// CtxCreateOnDevice creates a context pinned to an explicit device
// ordinal, bypassing placement.
func (a *API) CtxCreateOnDevice(client string, ord int) (uint64, Result) {
	if r := a.checkInit(); r != Success {
		return 0, r
	}
	if ord < 0 || ord >= len(a.devs) {
		return 0, ErrInvalidValue
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	h := a.nextCtx
	a.nextCtx++
	if client == "" {
		client = fmt.Sprintf("ctx-%d", h)
	}
	a.ctxs[h] = ctxInfo{client: client, dev: a.devs[ord]}
	a.curDev = ord // cuCtxCreate makes the new context current
	return h, Success
}

// CtxDestroy destroys a context.
func (a *API) CtxDestroy(h uint64) Result {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.ctxs[h]; !ok {
		return ErrInvalidContext
	}
	delete(a.ctxs, h)
	return Success
}

// MemAlloc mirrors cuMemAlloc, allocating in the current context — the one
// most recently created, per CUDA's context-stack rule. Before any context
// exists it allocates on device 0.
func (a *API) MemAlloc(size int64) (gpu.DevPtr, Result) {
	a.mu.Lock()
	ord := a.curDev
	a.mu.Unlock()
	return a.MemAllocOnDevice(size, ord)
}

// MemAllocOnDevice allocates on an explicit device ordinal. The returned
// pointer carries the ordinal tag, so later copies and frees route
// themselves.
func (a *API) MemAllocOnDevice(size int64, ord int) (gpu.DevPtr, Result) {
	if r := a.checkInit(); r != Success {
		return 0, r
	}
	if ord < 0 || ord >= len(a.devs) {
		return 0, ErrInvalidValue
	}
	ptr, err := a.devs[ord].Alloc(size)
	if err != nil {
		if size <= 0 {
			return 0, ErrInvalidValue
		}
		return 0, ErrOutOfMemory
	}
	return ptr, Success
}

// MemGetInfo mirrors cuMemGetInfo: free and total device memory, summed
// across the pool. Policies use it to gauge memory pressure before staging
// large batches.
func (a *API) MemGetInfo() (free, total int64, r Result) {
	if r := a.checkInit(); r != Success {
		return 0, 0, r
	}
	var used int64
	for _, d := range a.devs {
		total += d.Spec().MemoryBytes
		used += d.MemUsed()
	}
	return total - used, total, Success
}

// MemFree mirrors cuMemFree.
func (a *API) MemFree(ptr gpu.DevPtr) Result {
	dev := a.devForPtr(ptr)
	if dev == nil {
		return ErrInvalidValue
	}
	if err := dev.Free(ptr); err != nil {
		return ErrInvalidValue
	}
	return Success
}

// Bytes exposes a device allocation's backing storage, routed to the
// owning device by the pointer's ordinal tag. The daemon's batched-infer
// gather/scatter uses it.
func (a *API) Bytes(ptr gpu.DevPtr) ([]byte, error) {
	dev := a.devForPtr(ptr)
	if dev == nil {
		return nil, fmt.Errorf("%w: %#x", gpu.ErrBadPtr, ptr)
	}
	return dev.Bytes(ptr)
}

// MemcpyHtoD copies src into device memory at dst, charging PCIe transfer
// time on the virtual clock.
func (a *API) MemcpyHtoD(dst gpu.DevPtr, src []byte) Result {
	dev := a.devForPtr(dst)
	if dev == nil {
		return ErrInvalidValue
	}
	buf, err := dev.Bytes(dst)
	if err != nil {
		return ErrInvalidValue
	}
	if len(src) > len(buf) {
		return ErrInvalidValue
	}
	d := dev.TransferTime(int64(len(src)))
	dev.Clock().Advance(d)
	dev.ObserveCopy(int64(len(src)), d)
	copy(buf, src)
	return Success
}

// MemcpyDtoH copies device memory at src into dst, charging transfer time.
func (a *API) MemcpyDtoH(dst []byte, src gpu.DevPtr) Result {
	dev := a.devForPtr(src)
	if dev == nil {
		return ErrInvalidValue
	}
	buf, err := dev.Bytes(src)
	if err != nil {
		return ErrInvalidValue
	}
	if len(dst) > len(buf) {
		return ErrInvalidValue
	}
	d := dev.TransferTime(int64(len(dst)))
	dev.Clock().Advance(d)
	dev.ObserveCopy(int64(len(dst)), d)
	copy(dst, buf[:len(dst)])
	return Success
}

// ModuleLoad mirrors cuModuleLoad. Kernels live in a flat namespace, so any
// path succeeds and resolves the same symbols; the handle exists to keep the
// call sequence faithful to driver-API programs.
func (a *API) ModuleLoad(path string) (uint64, Result) {
	if r := a.checkInit(); r != Success {
		return 0, r
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if h, ok := a.modules[path]; ok {
		return h, Success
	}
	h := a.nextMod
	a.nextMod++
	a.modules[path] = h
	a.modNames[h] = path
	return h, Success
}

// ModuleGetFunction resolves a kernel by name within a loaded module.
func (a *API) ModuleGetFunction(module uint64, name string) (uint64, Result) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.modNames[module]; !ok {
		return 0, ErrInvalidHandle
	}
	k, ok := a.kernels[name]
	if !ok {
		return 0, ErrNotFound
	}
	h := a.nextFn
	a.nextFn++
	a.fns[h] = k
	return h, Success
}

// LaunchKernel launches fn synchronously on behalf of ctx's client,
// advancing the clock by launch overhead + modeled compute time (plus any
// queueing delay behind other device users), then running the kernel body.
func (a *API) LaunchKernel(ctx, fn uint64, args []uint64) Result {
	a.mu.Lock()
	ci, okCtx := a.ctxs[ctx]
	k, okFn := a.fns[fn]
	a.mu.Unlock()
	if !okCtx {
		return ErrInvalidContext
	}
	if !okFn {
		return ErrInvalidHandle
	}
	dev := ci.dev
	cost := dev.Spec().LaunchOverhead
	if k.Flops != nil {
		cost += dev.ComputeTime(k.Flops(args))
	}
	a.rec.Emit(flightrec.DomainGPU, flightrec.EvLaunch,
		a.rec.ExecTrace(), 0, dev.Ordinal(), fn, uint64(len(args)), 0)
	var launchErr error
	dev.Execute(ci.client, cost, func() {
		if k.Body != nil {
			launchErr = k.Body(dev, args)
		}
	})
	if launchErr != nil {
		return ErrLaunchFailed
	}
	return Success
}

// CtxSynchronize mirrors cuCtxSynchronize. Execution in this model is
// synchronous, so the device is already drained; the call advances the
// clock to the device's busy horizon for programs that overlap work.
func (a *API) CtxSynchronize(ctx uint64) Result {
	a.mu.Lock()
	ci, ok := a.ctxs[ctx]
	a.mu.Unlock()
	if !ok {
		return ErrInvalidContext
	}
	ci.dev.Clock().AdvanceTo(ci.dev.BusyUntil())
	return Success
}

// ChargeTransferFor advances the clock as if n bytes crossed PCIe without
// touching memory, on the link of the device owning ptr (the primary
// device's for a pointer no device owns), so multi-device staging bills the
// right copy engine. High-level remoted APIs (the TensorFlow-style calls of
// §4.4) use it to model their internal data movement.
func (a *API) ChargeTransferFor(ptr gpu.DevPtr, n int64) time.Duration {
	dev := a.devForPtr(ptr)
	if dev == nil {
		dev = a.devs[0]
	}
	return a.chargeTransferOn(dev, n)
}

func (a *API) chargeTransferOn(dev *gpu.Device, n int64) time.Duration {
	d := dev.TransferTime(n)
	dev.Clock().Advance(d)
	dev.ObserveCopy(n, d)
	return d
}
