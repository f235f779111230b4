// Package batcher is lakeD's cross-client inference batching subsystem: it
// turns independent remoted inference calls from many concurrent kernel
// clients into dynamically formed batched GPU launches.
//
// Every crossover in the paper (Table 3, Figs 8-12) is driven by batch
// size: GPU offload only pays off once enough requests are coalesced, yet
// each kernel-side client on its own rarely accumulates a profitable batch.
// The batcher closes that gap with continuous batching:
//
//   - a per-model request queue with a deadline-based flush — a request
//     never waits longer than Config.MaxWait on the virtual clock before
//     its batch is launched;
//   - adaptive per-flush execution: each flush consults the Fig 3
//     profitability/contention policy (internal/policy over remoted NVML
//     utilization) to run the formed batch on the GPU or on the kernel CPU
//     fallback;
//   - per-client fair admission: every client's outstanding requests are
//     bounded (Config.ClientDepth) and excess submissions are rejected
//     with the retryable ErrBackpressure instead of growing the queue;
//   - zero-copy scatter/gather: each request stages into one lakeShm slot
//     (a shm.Buffer held by value: input rows, padding to 64 bytes, output
//     rows); only the two offsets cross the kernel/user boundary, and lakeD
//     gathers the slots into one device staging area per flush
//     (internal/remoting.APIBatchedInfer);
//   - an allocation-free delivery path: every waiter of a model sleeps on
//     the model's one condition variable, a flush marks its members
//     delivered and broadcasts once, batch slices are recycled on the
//     model, and a flush's results are rows of one slab.
//
// Clients obtain a handle with Batcher.Client, submit feature batches with
// Client.Submit (or the synchronous Client.Infer), and collect results via
// Pending.Wait. Results are bit-identical to unbatched execution: batching
// changes when and where a request runs, never what it computes.
package batcher

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"lakego/internal/core"
	"lakego/internal/cuda"
	"lakego/internal/flightrec"
	"lakego/internal/gpu"
	"lakego/internal/gpupool"
	"lakego/internal/policy"
	"lakego/internal/remoting"
	"lakego/internal/shm"
	"lakego/internal/telemetry"
)

// ErrBackpressure is the reject-with-retry result: the client (or the
// region) is at capacity and the caller should retry after draining
// outstanding requests. It is the batching analogue of a full Netlink
// socket buffer — explicit backpressure instead of unbounded queueing.
var ErrBackpressure = errors.New("batcher: queue full, retry after outstanding requests drain")

// Config parameterizes a Batcher.
type Config struct {
	// MaxBatch is the target flush size in items: a queue reaching it is
	// flushed immediately by the submitting client. Default 32.
	MaxBatch int
	// MaxWait is the deadline-based flush bound on the virtual clock: a
	// flush happens no later than MaxWait after its oldest request was
	// enqueued. Default 100µs.
	MaxWait time.Duration
	// Linger is the real-time window a waiting client leaves open for
	// other goroutines to coalesce into the batch before it drives a
	// deadline flush itself. Linger is wall-clock scheduling slack only;
	// it never advances the virtual clock, so simulated results do not
	// depend on it. 0 flushes on first Wait. Default 200µs.
	Linger time.Duration
	// ClientDepth bounds each client's outstanding (submitted, not yet
	// delivered) requests; submissions beyond it fail with
	// ErrBackpressure. Default 8.
	ClientDepth int
	// Policy picks GPU vs CPU execution for each formed batch, typically
	// a Fig 3 adaptive policy's Decide. nil always offloads.
	Policy policy.Func
}

// DefaultConfig returns the defaults documented on Config.
func DefaultConfig() Config {
	return Config{
		MaxBatch:    32,
		MaxWait:     100 * time.Microsecond,
		Linger:      200 * time.Microsecond,
		ClientDepth: 8,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MaxBatch <= 0 {
		c.MaxBatch = d.MaxBatch
	}
	if c.MaxWait <= 0 {
		c.MaxWait = d.MaxWait
	}
	if c.Linger < 0 {
		c.Linger = 0
	}
	if c.ClientDepth <= 0 {
		c.ClientDepth = d.ClientDepth
	}
	return c
}

// ModelConfig describes one offloadable model. It is the single descriptor
// behind every execution route: offload.NewRunner runs it unbatched on the
// CPU or through LAKE, RegisterModel queues it for cross-client batching,
// and both launch the one device kernel Kernel builds from it.
type ModelConfig struct {
	// Name is the device-kernel symbol (unique per runtime).
	Name string
	// InputWidth / OutputWidth are per-item float32 counts.
	InputWidth, OutputWidth int
	// MaxBatch caps one launch in items (device staging size). RegisterModel
	// defaults it to 1024, the Fig 8-11 sweep ceiling.
	MaxBatch int
	// CPUFixed is the per-invocation kernel-space cost (kernel_fpu
	// bracketing etc.) and CPUPerItem the per-inference cost charged when a
	// batch runs on the CPU path.
	CPUFixed, CPUPerItem time.Duration
	// FlopsPerItem drives the GPU compute-time model.
	FlopsPerItem float64
	// Forward computes one item's output. nil means timing-only (zero
	// outputs), e.g. the large malware sweeps.
	Forward func(x []float32) []float32
	// ForwardProvider, when non-nil, is resolved once per batch to obtain
	// the batch's forward pass, overriding Forward — the model-lifecycle
	// hot-swap hook. Per-batch resolution keeps every batch on a single
	// model version. RegisterModel and Kernel turn a plain Forward into a
	// provider of one fixed adapter.
	ForwardProvider func() SlabForward
}

// SlabForward is the batch-shaped forward pass every execution route runs:
// in holds items rows of InputWidth floats, out receives items rows of
// OutputWidth floats. *nn.Network implements it.
type SlabForward interface {
	ForwardSlab(in []float32, items int, out []float32) error
}

// perItem adapts a ModelConfig's per-item Forward to SlabForward.
type perItem struct {
	name        string
	inW, outW   int
	forwardItem func(x []float32) []float32
}

func (f perItem) ForwardSlab(in []float32, items int, out []float32) error {
	for i := 0; i < items; i++ {
		y := f.forwardItem(in[i*f.inW : (i+1)*f.inW])
		if len(y) != f.outW {
			return fmt.Errorf("%s: forward returned %d outputs, want %d", f.name, len(y), f.outW)
		}
		copy(out[i*f.outW:], y)
	}
	return nil
}

// Validate reports a descriptor no kernel can be staged for.
func (mc ModelConfig) Validate() error {
	if mc.Name == "" {
		return fmt.Errorf("batcher: model needs a name")
	}
	if mc.InputWidth <= 0 || mc.OutputWidth <= 0 || mc.MaxBatch <= 0 {
		return fmt.Errorf("batcher: %s: invalid dimensions %dx%d max %d",
			mc.Name, mc.InputWidth, mc.OutputWidth, mc.MaxBatch)
	}
	return nil
}

// ResolveForward returns the forward pass one batch runs (nil =
// timing-only). Callers resolve once per batch, never per item.
func (mc ModelConfig) ResolveForward() SlabForward {
	if mc.ForwardProvider != nil {
		return mc.ForwardProvider()
	}
	if mc.Forward == nil {
		return nil
	}
	return perItem{mc.Name, mc.InputWidth, mc.OutputWidth, mc.Forward}
}

// bindForward turns a plain Forward into a ForwardProvider of one adapter
// made here, so a route that resolves per batch no longer boxes one each time.
func (mc ModelConfig) bindForward() ModelConfig {
	if mc.ForwardProvider == nil && mc.Forward != nil {
		fwd := mc.ResolveForward()
		mc.ForwardProvider = func() SlabForward { return fwd }
	}
	return mc
}

// Kernel builds the model's device kernel: one batch-shaped forward pass
// over a staged slab. Args: [inPtr, outPtr, items].
func (mc ModelConfig) Kernel() *cuda.Kernel {
	mc = mc.bindForward()
	// The decoded input rows and the logits of one launch, on a free list
	// rather than one buffer per kernel because gpu.Device.Execute runs
	// bodies concurrently.
	slabs := new(shm.FreeList[[]float32])
	return &cuda.Kernel{
		Name:  mc.Name,
		Flops: func(args []uint64) float64 { return float64(args[2]) * mc.FlopsPerItem },
		Body: func(dev *gpu.Device, args []uint64) error {
			if len(args) != 3 {
				return fmt.Errorf("%s: want 3 args, got %d", mc.Name, len(args))
			}
			n := int(args[2])
			if n <= 0 || n > mc.MaxBatch {
				return fmt.Errorf("%s: batch %d out of range", mc.Name, n)
			}
			fwd := mc.ResolveForward()
			if fwd == nil {
				return nil // timing-only kernel
			}
			inMem, err := dev.Bytes(gpu.DevPtr(args[0]))
			if err != nil {
				return err
			}
			outMem, err := dev.Bytes(gpu.DevPtr(args[1]))
			if err != nil {
				return err
			}
			slab := slabs.Get()
			err = mc.forwardBytes(fwd, slab, inMem, outMem, n)
			slabs.Put(slab)
			return err
		},
	}
}

// forwardBytes is where the device kernel and the CPU route meet: decode n
// rows of inMem into *slab (grown to fit), forward, encode into outMem.
func (mc ModelConfig) forwardBytes(fwd SlabForward, slab *[]float32, inMem, outMem []byte, n int) error {
	if need := n * (mc.InputWidth + mc.OutputWidth); cap(*slab) < need {
		*slab = make([]float32, need)
	}
	in, out := (*slab)[:n*mc.InputWidth], (*slab)[n*mc.InputWidth:][:n*mc.OutputWidth]
	if err := cuda.ReadFloat32s(in, inMem); err != nil {
		return err
	}
	if len(outMem) < 4*len(out) {
		return fmt.Errorf("%s: output slab %d bytes, need %d", mc.Name, len(outMem), 4*len(out))
	}
	if err := fwd.ForwardSlab(in, n, out); err != nil {
		return err
	}
	return cuda.PutFloat32s(outMem, out)
}

// Stats is a snapshot of batcher activity.
type Stats struct {
	// Requests and Items count accepted submissions (a request carries
	// >= 1 items); Rejected counts backpressured submissions.
	Requests, Items, Rejected int64
	// Flushes = GPUFlushes + CPUFlushes; FullFlushes were triggered by
	// reaching MaxBatch, DeadlineFlushes by the MaxWait timer.
	Flushes, GPUFlushes, CPUFlushes int64
	FullFlushes, DeadlineFlushes    int64
	// FallbackFlushes counts GPU-routed flushes that completed on the CPU
	// because lakeD was unavailable (CUDA_ERROR_SYSTEM_NOT_READY). They
	// are included in GPUFlushes (the policy's routing decision).
	FallbackFlushes int64
	// MaxQueueDelay is the largest virtual-time gap observed between a
	// request's enqueue and its batch's flush instant.
	MaxQueueDelay time.Duration
}

// AvgBatch returns the mean flushed batch size in items.
func (s Stats) AvgBatch() float64 {
	if s.Flushes == 0 {
		return 0
	}
	return float64(s.Items) / float64(s.Flushes)
}

// Batcher aggregates inference requests across clients per model.
type Batcher struct {
	rt  *core.Runtime
	cfg Config
	// pool is non-nil only on a multi-device runtime: each model is staged
	// on every device and each flush steered to the least-utilized one.
	pool *gpupool.Pool

	// models is the copy-on-write registry Submit reads without a lock;
	// mu serializes RegisterModel's copies.
	mu     sync.Mutex
	models atomic.Pointer[map[string]*model]

	requests, items                 atomic.Int64
	flushes, gpuFlushes, cpuFlushes atomic.Int64
	fullFlushes, deadlineFlushes    atomic.Int64
	fallbackFlushes                 atomic.Int64
	maxDelay                        atomic.Int64

	// rejected is what Stats reports and what the registry exports; the
	// gauge and histograms are nil with telemetry disabled.
	rejected   telemetry.Counter
	queueDepth *telemetry.Gauge     // items queued across all models
	flushItems *telemetry.Histogram // items per formed batch
	queueDelay *telemetry.Histogram // enqueue-to-flush virtual wait
	// gpuItemLat / cpuItemLat observe per-item execution latency of each
	// flush on its decided path: the shared series the health plane's
	// gpu_item/cpu_item stages read.
	gpuItemLat, cpuItemLat *telemetry.Histogram

	// rec receives batcher-domain events and allocates per-request and
	// per-flush trace IDs; nil-safe.
	rec *flightrec.Recorder
}

// New attaches a batcher to rt, wired to its flight recorder and declaring
// its series through the runtime's Namer. Register models with
// RegisterModel, then hand Client handles to submitters.
func New(rt *core.Runtime, cfg Config) *Batcher {
	b := &Batcher{rt: rt, cfg: cfg.withDefaults(), rec: rt.FlightRecorder()}
	b.models.Store(&map[string]*model{})
	if pool := rt.Pool(); pool.Size() > 1 {
		b.pool = pool
	}
	reg, name := rt.Telemetry(), rt.Namer()
	b.queueDepth = reg.Gauge(name("lake_batcher_queue_depth"), "Inference items currently queued across all models.")
	b.flushItems = reg.Histogram(name("lake_batcher_flush_items"), "Items per formed batch.", telemetry.CountBuckets())
	reg.AttachCounter(name("lake_batcher_rejects_total"), "Submissions rejected by backpressure.", &b.rejected)
	b.queueDelay = reg.Histogram(name("lake_batcher_queue_delay_ns"), "Per-request enqueue-to-flush wait (virtual ns).", telemetry.DefaultLatencyBuckets())
	b.gpuItemLat, b.cpuItemLat = rt.ItemLatency()
	return b
}

// Stats snapshots activity counters.
func (b *Batcher) Stats() Stats {
	return Stats{
		Requests:        b.requests.Load(),
		Items:           b.items.Load(),
		Rejected:        b.rejected.Value(),
		Flushes:         b.flushes.Load(),
		GPUFlushes:      b.gpuFlushes.Load(),
		CPUFlushes:      b.cpuFlushes.Load(),
		FullFlushes:     b.fullFlushes.Load(),
		DeadlineFlushes: b.deadlineFlushes.Load(),
		FallbackFlushes: b.fallbackFlushes.Load(),
		MaxQueueDelay:   time.Duration(b.maxDelay.Load()),
	}
}

// model is one registered model's queue plus device-side handles. On a
// multi-device runtime specs holds one staging spec per pool device (index
// = ordinal); single-device runtimes have exactly specs[0].
type model struct {
	b     *Batcher
	mc    ModelConfig
	specs []remoting.BatchSpec

	mu          sync.Mutex
	queue       []*Pending
	queuedItems int
	nextSeq     uint64
	// settled (L = &mu) is what every waiter sleeps on: it is broadcast
	// when a flush has delivered its members and when a leader steps down.
	settled sync.Cond
	leading bool // a waiter is coalescing the next deadline flush
	fullSig chan struct{}
	// spare holds emptied batch slices for takeLocked to reuse; it never
	// holds more than were in flight at once.
	spare [][]*Pending

	// execMu serializes flush execution: a model has one device staging
	// area, so concurrent flushes of the same model must not interleave.
	execMu sync.Mutex
	// Flush wire scratch, guarded by execMu: the entry slice and the
	// remoting marshal/demux buffers are recycled across flushes so the
	// steady-state flush wire path performs no heap allocation.
	entriesScratch []remoting.BatchEntry
	wireScratch    remoting.BatchScratch
	cpuScratch     []float32    // forwardBytes slab of the CPU route
	slotScratch    []shm.Buffer // a flush's lakeShm slots, freed together
}

// RegisterModel installs a model: registers its device kernel, creates the
// remoted context/function handles and the device staging allocations one
// flush executes against.
func (b *Batcher) RegisterModel(mc ModelConfig) error {
	if mc.MaxBatch <= 0 {
		mc.MaxBatch = 1024
	}
	if err := mc.Validate(); err != nil {
		return err
	}
	mc = mc.bindForward()
	if _, err := b.model(mc.Name); err == nil {
		return fmt.Errorf("batcher: model %q already registered", mc.Name)
	}

	m := &model{b: b, mc: mc}
	m.settled.L = &m.mu
	b.rt.RegisterKernel(mc.Kernel())
	lib := b.rt.Lib()
	mod, r := lib.CuModuleLoad(mc.Name + ".cubin")
	if r != cuda.Success {
		return r.Err()
	}
	fn, r := lib.CuModuleGetFunction(mod, mc.Name)
	if r != cuda.Success {
		return r.Err()
	}
	if b.pool == nil {
		// Single-device: the exact wire sequence the batcher has always
		// issued (argless ctx create, single-arg alloc).
		ctx, r := lib.CuCtxCreate("batch-" + mc.Name)
		if r != cuda.Success {
			return r.Err()
		}
		devIn, r := lib.CuMemAlloc(int64(4 * mc.InputWidth * mc.MaxBatch))
		if r != cuda.Success {
			return r.Err()
		}
		devOut, r := lib.CuMemAlloc(int64(4 * mc.OutputWidth * mc.MaxBatch))
		if r != cuda.Success {
			return r.Err()
		}
		m.specs = []remoting.BatchSpec{{
			Ctx: ctx, Fn: fn, DevIn: devIn, DevOut: devOut,
			InWidth: mc.InputWidth, OutWidth: mc.OutputWidth,
		}}
	} else {
		// Multi-device: stage the model on every pool device so a flush can
		// be steered to whichever device placement picks.
		for ord := 0; ord < b.pool.Size(); ord++ {
			ctx, r := lib.CuCtxCreateOnDevice("batch-"+mc.Name, ord)
			if r != cuda.Success {
				return r.Err()
			}
			devIn, r := lib.CuMemAllocOnDevice(int64(4*mc.InputWidth*mc.MaxBatch), ord)
			if r != cuda.Success {
				return r.Err()
			}
			devOut, r := lib.CuMemAllocOnDevice(int64(4*mc.OutputWidth*mc.MaxBatch), ord)
			if r != cuda.Success {
				return r.Err()
			}
			m.specs = append(m.specs, remoting.BatchSpec{
				Ctx: ctx, Fn: fn, DevIn: devIn, DevOut: devOut,
				InWidth: mc.InputWidth, OutWidth: mc.OutputWidth,
			})
		}
	}
	b.mu.Lock()
	models := maps.Clone(*b.models.Load())
	models[mc.Name] = m
	b.models.Store(&models)
	b.mu.Unlock()
	return nil
}

func (b *Batcher) model(name string) (*model, error) {
	m, ok := (*b.models.Load())[name]
	if !ok {
		return nil, fmt.Errorf("batcher: model %q not registered", name)
	}
	return m, nil
}

// Client is one kernel-side submitter's handle. Admission is per client:
// at most ClientDepth outstanding requests, so one chatty subsystem cannot
// starve the others (fair admission).
type Client struct {
	b           *Batcher
	name        string
	outstanding atomic.Int64
}

// Client returns a named submission handle.
func (b *Batcher) Client(name string) *Client {
	return &Client{b: b, name: name}
}

// Pending is one in-flight request. Exactly one goroutine should Wait on
// it (Wait may drive the flush on the caller's goroutine). It is never
// recycled: Latency is read after Wait.
type Pending struct {
	m     *model
	c     *Client
	seq   uint64
	count int
	// tid is the request's flight-recorder trace ID (0 when untraced): its
	// enqueue event carries it, with the route hop, and the stitcher
	// re-homes it onto the flush whose seq range holds seq.
	tid uint64

	slot   shm.Buffer // the one lakeShm reservation: input rows, then output rows
	outOff int64      // where the output rows start in slot (64-aligned)
	enq    time.Duration

	// taken and delivered are guarded by m.mu: a flush claims the request
	// by setting taken, and sets delivered once out, err and doneAt hold.
	taken, delivered bool

	out    [][]float32
	one    [1][]float32 // backs out for a one-item request
	err    error
	doneAt time.Duration
}

// Latency reports enqueue-to-delivery virtual time; valid after Wait.
func (p *Pending) Latency() time.Duration { return p.doneAt - p.enq }

// Submit enqueues items (each of the model's input width) as one request
// and returns a Pending handle. It fails fast with ErrBackpressure when the
// client is at depth or lakeShm cannot stage the request. If the submission
// fills the batch to MaxBatch items, the flush runs on this goroutine
// before Submit returns.
func (c *Client) Submit(modelName string, items [][]float32) (*Pending, error) {
	p := new(Pending)
	if err := c.SubmitInto(p, modelName, items, 0); err != nil {
		return nil, err
	}
	return p, nil
}

// SubmitInto is Submit into caller-owned storage, for a layer that embeds
// the handle in its own (the fleet router). p must not be copied afterwards.
// route is the router's hop (flightrec.RouteWord), recorded on the
// request's EvEnqueue; 0 outside a fleet.
func (c *Client) SubmitInto(p *Pending, modelName string, items [][]float32, route uint64) error {
	b := c.b
	m, err := b.model(modelName)
	if err != nil {
		return err
	}
	if len(items) == 0 {
		return fmt.Errorf("batcher: empty request")
	}
	if len(items) > m.mc.MaxBatch {
		return fmt.Errorf("batcher: request of %d items exceeds model max %d", len(items), m.mc.MaxBatch)
	}
	for _, x := range items {
		if len(x) != m.mc.InputWidth {
			return fmt.Errorf("batcher: item width %d, want %d", len(x), m.mc.InputWidth)
		}
	}
	if c.outstanding.Add(1) > int64(b.cfg.ClientDepth) {
		c.outstanding.Add(-1)
		b.rejected.Inc()
		return ErrBackpressure
	}
	if err := c.stage(p, m, items); err != nil {
		c.outstanding.Add(-1)
		b.rejected.Inc()
		return err
	}
	b.requests.Add(1)
	b.items.Add(int64(p.count))

	if b.rec.Enabled() {
		p.tid = b.rec.NextTraceID()
	}

	m.mu.Lock()
	p.seq = m.nextSeq
	m.nextSeq++
	p.enq = b.rt.Clock().Now()
	m.queue = append(m.queue, p)
	m.queuedItems += p.count
	b.queueDepth.Add(int64(p.count))
	b.rec.Emit(flightrec.DomainBatcher, flightrec.EvEnqueue,
		p.tid, p.seq, 0, uint64(p.count), m.specs[0].Fn, route)

	var batch []*Pending
	reason := flushFull
	switch {
	case m.queuedItems >= b.cfg.MaxBatch:
		batch = m.takeLocked()
	case m.queuedItems > 0 && p.enq >= m.queue[0].enq+b.cfg.MaxWait:
		// Another model's activity pushed the clock past our oldest
		// deadline while no waiter was driving; honor it now.
		batch = m.takeLocked()
		reason = flushDeadline
	}
	if batch != nil && m.fullSig != nil {
		// Wake a lingering leader: it steps down, which also releases the
		// waiters behind it, whose requests this take may have claimed too.
		close(m.fullSig)
		m.fullSig = nil
	}
	m.mu.Unlock()
	if batch != nil {
		b.execute(m, batch, reason, p.enq)
	}
	return nil
}

// stage reserves the request's lakeShm slot, encodes the input rows straight
// into it and fills *p. Allocation failure is backpressure: the region
// drains as in-flight requests complete.
func (c *Client) stage(p *Pending, m *model, items [][]float32) error {
	region := c.b.rt.Region()
	rowBytes := 4 * m.mc.InputWidth
	outOff := int64(rowBytes*len(items)+63) &^ 63 // lakeShm's alignment: both halves cache-line aligned
	slot, err := region.Alloc(outOff + int64(4*m.mc.OutputWidth*len(items)))
	if err != nil {
		return ErrBackpressure
	}
	dst := slot.Bytes()
	for i, x := range items {
		if err := cuda.PutFloat32s(dst[i*rowBytes:], x); err != nil {
			region.Free(slot)
			return err
		}
	}
	*p = Pending{m: m, c: c, count: len(items), slot: slot, outOff: outOff}
	return nil
}

// Infer is Submit followed by Wait.
func (c *Client) Infer(modelName string, items [][]float32) ([][]float32, error) {
	p, err := c.Submit(modelName, items)
	if err != nil {
		return nil, err
	}
	return p.Wait()
}

// takeLocked claims the FIFO prefix of the queue that fits the model's
// staging capacity, into a recycled batch slice. Caller holds m.mu.
func (m *model) takeLocked() []*Pending {
	if len(m.queue) == 0 {
		return nil
	}
	items := 0
	n := 0
	for _, p := range m.queue {
		if items+p.count > m.mc.MaxBatch {
			break
		}
		items += p.count
		n++
	}
	if n == 0 {
		return nil
	}
	var batch []*Pending
	if k := len(m.spare) - 1; k >= 0 {
		batch, m.spare = m.spare[k], m.spare[:k]
	}
	batch = append(batch, m.queue[:n]...)
	m.queue = append(m.queue[:0], m.queue[n:]...)
	m.queuedItems -= items
	m.b.queueDepth.Add(-int64(items))
	for _, p := range batch {
		p.taken = true
	}
	return batch
}

// deliverLocked marks a flushed batch delivered, returns its slice to the
// spare list and wakes every waiter. Caller holds m.mu.
func (m *model) deliverLocked(batch []*Pending) {
	for _, p := range batch {
		if p.delivered {
			panic("batcher: request delivered twice")
		}
		p.delivered = true
	}
	clear(batch) // the spare list must not keep delivered requests alive
	m.spare = append(m.spare, batch[:0])
	m.settled.Broadcast()
}
