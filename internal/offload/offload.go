// Package offload is the one path every ML-assisted subsystem takes from a
// model descriptor to an inference result: a batcher.ModelConfig's Kernel is
// registered with lakeD, a Runner stages feature rows in lakeShm and runs
// them on the kernel CPU path, through LAKE's remoted CUDA path, or wherever
// the Fig 3 policy decides (RunAuto), and EnableBatching queues the same
// descriptor behind the cross-client batcher. The package also sweeps batch
// sizes for the profitability figures (Figs 8, 10, 11, 12) and Table 3's
// crossover points.
//
// Each workload package embeds a Model: a Runner built from the workload's
// descriptor (model, feature width, calibrated kernel-space CPU cost) plus
// one per-row decoder that turns an output row into the workload's
// prediction. The Runner owns the lakeShm staging buffers and the
// measurement protocol (LAKE vs LAKE-sync, mirroring §7's "with and without
// synchronous data movement"); the Model owns the typed CPU, LAKE,
// policy-routed and batched paths, so a workload supplies only its
// descriptor and decoder.
package offload

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lakego/internal/batcher"
	"lakego/internal/core"
	"lakego/internal/cuda"
	"lakego/internal/gpu"
	"lakego/internal/nn"
	"lakego/internal/policy"
	"lakego/internal/shm"
	"lakego/internal/telemetry"
	"lakego/internal/vtime"
)

// Slot is a workload's hot-swappable serving network: the model lifecycle
// replaces versions with SwapNet while inferences are in flight, and every
// execution route resolves the slot exactly once per batch (Serve), so a
// batch always completes on a single version — swaps never drop or mix
// predictions.
type Slot struct{ net atomic.Pointer[nn.Network] }

// NewSlot returns a slot serving net.
func NewSlot(net *nn.Network) *Slot {
	s := &Slot{}
	s.net.Store(net)
	return s
}

// Net returns the serving network.
func (s *Slot) Net() *nn.Network { return s.net.Load() }

// SwapNet atomically replaces the serving network — the lifecycle manager's
// hot-swap hook. The replacement must have the serving network's layer
// geometry: the descriptor's widths and FlopsPerItem were captured from it.
// Batches already in flight finish on the network they resolved.
func (s *Slot) SwapNet(net *nn.Network) error {
	if cur := s.net.Load(); !nn.SameShape(cur, net) {
		return fmt.Errorf("offload: swap to network sizes %v, serving %v", net.Sizes(), cur.Sizes())
	}
	s.net.Store(net)
	return nil
}

// Serve binds mc's forward pass and FLOP count to the slot.
func (s *Slot) Serve(mc batcher.ModelConfig) batcher.ModelConfig {
	mc.FlopsPerItem = s.Net().Flops()
	mc.Forward = nil // overridden by the provider; keeps no swapped-out net alive
	mc.ForwardProvider = func() batcher.SlabForward { return s.net.Load() }
	return mc
}

// Runner executes one model descriptor on either path.
type Runner struct {
	rt *core.Runtime
	mc batcher.ModelConfig

	ctx, fn       uint64
	devIn, devOut gpu.DevPtr
	inBuf, outBuf shm.Buffer

	// stageMu serializes RunLAKE: the staging buffers and device slabs are
	// one per runner, so concurrent remoted runs must not interleave.
	stageMu sync.Mutex

	// gpuLat / cpuLat are the runtime's shared per-item latency series
	// (core.Runtime.ItemLatency).
	gpuLat, cpuLat *telemetry.Histogram
}

// NewRunner registers mc's device kernel and stages buffers.
func NewRunner(rt *core.Runtime, mc batcher.ModelConfig) (*Runner, error) {
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	r := &Runner{rt: rt, mc: mc}
	r.gpuLat, r.cpuLat = rt.ItemLatency()
	rt.RegisterKernel(mc.Kernel())
	lib := rt.Lib()
	ctx, res := lib.CuCtxCreate("kernel-" + mc.Name)
	if res != cuda.Success {
		return nil, res.Err()
	}
	mod, res := lib.CuModuleLoad(mc.Name + ".cubin")
	if res != cuda.Success {
		return nil, res.Err()
	}
	fn, res := lib.CuModuleGetFunction(mod, mc.Name)
	if res != cuda.Success {
		return nil, res.Err()
	}
	r.ctx, r.fn = ctx, fn

	inBytes := int64(4 * mc.InputWidth * mc.MaxBatch)
	outBytes := int64(4 * mc.OutputWidth * mc.MaxBatch)
	if r.devIn, res = lib.CuMemAlloc(inBytes); res != cuda.Success {
		return nil, res.Err()
	}
	if r.devOut, res = lib.CuMemAlloc(outBytes); res != cuda.Success {
		return nil, res.Err()
	}
	var err error
	if r.inBuf, err = rt.Region().Alloc(inBytes); err != nil {
		return nil, err
	}
	if r.outBuf, err = rt.Region().Alloc(outBytes); err != nil {
		return nil, err
	}
	return r, nil
}

// Config returns the runner's model descriptor.
func (r *Runner) Config() batcher.ModelConfig { return r.mc }

// BatchModelName is the batcher model EnableBatching registers.
func (r *Runner) BatchModelName() string { return r.mc.Name + "_batched" }

// EnableBatching registers the runner's descriptor with the lakeD
// cross-client batcher, so clients that each see fewer items per window
// than the model's crossover coalesce into one profitable launch. The
// batched model shares the descriptor's calibrated CPU cost, FLOP count and
// forward pass: the batcher's CPU fallback and the Fig 3 policy see the same
// economics as the unbatched routes, and outputs are bit-identical.
func (r *Runner) EnableBatching(b *batcher.Batcher) error {
	mc := r.mc
	mc.Name = r.BatchModelName()
	return b.RegisterModel(mc)
}

// checkWidth rejects a feature row the staged slab (and nn.Forward, which
// panics on it) cannot take.
func (r *Runner) checkWidth(x []float32) error {
	if len(x) != r.mc.InputWidth {
		return fmt.Errorf("%s: item width %d, want %d", r.mc.Name, len(x), r.mc.InputWidth)
	}
	return nil
}

// RunCPU executes the batch on the kernel CPU path: real outputs (when the
// descriptor has a forward pass) with the calibrated kernel-space cost
// charged. Like RunLAKE's, the rows are slices of one output slab. A row of
// the wrong width panics, as nn.Forward always has: RunAuto and RunLAKE
// reject such rows as errors before they get here.
func (r *Runner) RunCPU(batch [][]float32) ([][]float32, time.Duration) {
	n, w := len(batch), r.mc.OutputWidth
	vals := make([]float32, n*w) // stays zero when timing-only
	// Resolved once: the whole batch runs one model version.
	if fwd := r.mc.ResolveForward(); fwd != nil {
		in := make([]float32, 0, n*r.mc.InputWidth)
		for _, x := range batch {
			if err := r.checkWidth(x); err != nil {
				panic(err)
			}
			in = append(in, x...)
		}
		if err := fwd.ForwardSlab(in, n, vals); err != nil {
			panic(err)
		}
	}
	out := make([][]float32, n)
	for i := range out {
		out[i] = vals[i*w : (i+1)*w]
	}
	cost := r.mc.CPUFixed + time.Duration(n)*r.mc.CPUPerItem
	r.rt.Clock().Advance(cost)
	if n > 0 {
		r.cpuLat.ObserveDuration(cost / time.Duration(n))
	}
	return out, cost
}

// RunLAKE executes the batch through the full remoted stack. With sync the
// input staging copy is on the measured critical path ("LAKE (sync.)");
// otherwise it is charged before timing starts ("LAKE").
func (r *Runner) RunLAKE(batch [][]float32, sync bool) ([][]float32, time.Duration, error) {
	n := len(batch)
	if n == 0 {
		return nil, 0, nil
	}
	if n > r.mc.MaxBatch {
		return nil, 0, fmt.Errorf("%s: batch %d exceeds max %d", r.mc.Name, n, r.mc.MaxBatch)
	}
	r.stageMu.Lock()
	defer r.stageMu.Unlock()
	// Rows go straight into lakeShm; n <= MaxBatch keeps every offset inside
	// the MaxBatch-sized staging buffer.
	staged := r.inBuf.Bytes()
	for i, x := range batch {
		if err := r.checkWidth(x); err != nil {
			return nil, 0, err
		}
		if err := cuda.PutFloat32s(staged[4*i*r.mc.InputWidth:], x); err != nil {
			return nil, 0, err
		}
	}
	lib := r.rt.Lib()
	inBytes := int64(4 * n * r.mc.InputWidth)
	outBytes := int64(4 * n * r.mc.OutputWidth)
	copyIn := func() error {
		if res := lib.CuMemcpyHtoDShm(r.devIn, r.inBuf, inBytes); res != cuda.Success {
			return res.Err()
		}
		return nil
	}
	var sw vtime.Stopwatch
	if sync {
		sw = vtime.StartStopwatch(r.rt.Clock())
		if err := copyIn(); err != nil {
			return nil, 0, err
		}
	} else {
		if err := copyIn(); err != nil {
			return nil, 0, err
		}
		sw = vtime.StartStopwatch(r.rt.Clock())
	}
	if res := lib.CuLaunchKernel(r.ctx, r.fn, []uint64{uint64(r.devIn), uint64(r.devOut), uint64(n)}); res != cuda.Success {
		return nil, 0, res.Err()
	}
	if res := lib.CuMemcpyDtoHShm(r.outBuf, r.devOut, outBytes); res != cuda.Success {
		return nil, 0, res.Err()
	}
	elapsed := sw.Elapsed()
	r.gpuLat.ObserveDuration(elapsed / time.Duration(n))

	vals, err := cuda.Float32s(r.outBuf.Bytes(), n*r.mc.OutputWidth)
	if err != nil {
		return nil, 0, err
	}
	out := make([][]float32, n)
	for i := range out {
		out[i] = vals[i*r.mc.OutputWidth : (i+1)*r.mc.OutputWidth]
	}
	return out, elapsed, nil
}

// RunAuto routes one batch through pol (the Fig 3 profitability policy)
// and executes it on the decided path. A GPU-routed batch that fails
// because lakeD is unavailable (CUDA_ERROR_SYSTEM_NOT_READY — declared
// dead and unrecovered) transparently completes on the kernel CPU
// fallback; other remoted errors are returned. Row widths are checked once
// before routing, so a malformed batch fails the same way on either route.
// The returned Decision is the path that actually produced the outputs.
func (r *Runner) RunAuto(batch [][]float32, pol policy.Func) ([][]float32, policy.Decision, time.Duration, error) {
	for _, x := range batch {
		if err := r.checkWidth(x); err != nil {
			return nil, policy.UseCPU, 0, err
		}
	}
	dec := policy.UseGPU
	if pol != nil {
		dec = pol(len(batch))
	}
	if dec == policy.UseGPU {
		out, d, err := r.RunLAKE(batch, true)
		if err == nil {
			return out, policy.UseGPU, d, nil
		}
		if res, ok := cuda.AsResult(err); !ok || res != cuda.ErrNotReady {
			return nil, policy.UseGPU, 0, err
		}
	}
	out, d := r.RunCPU(batch)
	return out, policy.UseCPU, d, nil
}

// Model is a workload's typed view of a Runner: every route returns the
// output rows decoded one by one into predictions of type T.
type Model[T any] struct {
	runner *Runner
	decode func(row []float32) T
}

// NewModel registers mc's kernel (NewRunner) and pairs the runner with
// decode, which maps one output row of width mc.OutputWidth to a
// prediction.
func NewModel[T any](rt *core.Runtime, mc batcher.ModelConfig, decode func(row []float32) T) (Model[T], error) {
	r, err := NewRunner(rt, mc)
	if err != nil {
		return Model[T]{}, err
	}
	return Model[T]{runner: r, decode: decode}, nil
}

// Runner exposes the offload runner (sweeps, EnableBatching).
func (m Model[T]) Runner() *Runner { return m.runner }

func (m Model[T]) decodeAll(out [][]float32) []T {
	preds := make([]T, len(out))
	for i, row := range out {
		preds[i] = m.decode(row)
	}
	return preds
}

// InferCPU predicts the batch on the kernel CPU path: real forward passes,
// with the modeled kernel-space cost charged (RunCPU).
func (m Model[T]) InferCPU(batch [][]float32) ([]T, time.Duration) {
	out, d := m.runner.RunCPU(batch)
	return m.decodeAll(out), d
}

// InferLAKE predicts the batch on the GPU through the full LAKE stack and
// returns the predictions plus the modeled inference time. With sync the
// input staging copy is included in the measured time ("LAKE (sync.)");
// otherwise the copy is performed before timing starts, modeling input
// data copied to the GPU asynchronously during batch formation ("LAKE").
// An empty batch returns nil predictions and no time.
func (m Model[T]) InferLAKE(batch [][]float32, sync bool) ([]T, time.Duration, error) {
	out, d, err := m.runner.RunLAKE(batch, sync)
	if err != nil || out == nil {
		return nil, 0, err
	}
	return m.decodeAll(out), d, nil
}

// InferAuto routes the batch through pol (the Fig 3 profitability policy)
// and predicts on the decided path. A batch whose remoted path fails
// because lakeD is unavailable (CUDA_ERROR_SYSTEM_NOT_READY) completes on
// the kernel CPU path instead, so the kernel still gets its decision with
// the accelerator service down. The returned Decision is the path that
// actually produced the predictions.
func (m Model[T]) InferAuto(batch [][]float32, pol policy.Func) ([]T, policy.Decision, time.Duration, error) {
	out, dec, d, err := m.runner.RunAuto(batch, pol)
	if err != nil {
		return nil, dec, 0, err
	}
	return m.decodeAll(out), dec, d, nil
}

// SubmitBatched stages one client's batch with the cross-client batcher
// (after Runner().EnableBatching) and returns the pending handle; Wait
// collects the predictions. Clients that each see fewer items per window
// than the model's crossover coalesce into one profitable GPU launch.
func (m Model[T]) SubmitBatched(c *batcher.Client, batch [][]float32) (*batcher.Pending, error) {
	return c.Submit(m.runner.BatchModelName(), batch)
}

// Wait resolves a SubmitBatched handle into predictions, decoding the rows
// exactly as the unbatched paths do.
func (m Model[T]) Wait(p *batcher.Pending) ([]T, error) {
	out, err := p.Wait()
	if err != nil {
		return nil, err
	}
	for _, row := range out {
		if len(row) != m.runner.mc.OutputWidth {
			return nil, fmt.Errorf("%s: batched output width %d, want %d", m.runner.mc.Name, len(row), m.runner.mc.OutputWidth)
		}
	}
	return m.decodeAll(out), nil
}

// InferBatched predicts the batch through the cross-client batcher:
// SubmitBatched + Wait. Predictions are bit-identical to InferCPU and
// InferLAKE; only the request's scheduling differs.
func (m Model[T]) InferBatched(c *batcher.Client, batch [][]float32) ([]T, error) {
	p, err := m.SubmitBatched(c, batch)
	if err != nil {
		return nil, err
	}
	return m.Wait(p)
}

// SweepPoint is one batch-size measurement across execution paths.
type SweepPoint struct {
	Batch    int
	CPU      time.Duration
	LAKE     time.Duration
	LAKESync time.Duration
}

// Sweep measures the runner at each batch size; mkItem generates the i-th
// input of a batch.
func Sweep(r *Runner, batches []int, mkItem func(i int) []float32) ([]SweepPoint, error) {
	points := make([]SweepPoint, 0, len(batches))
	for _, b := range batches {
		if b > r.mc.MaxBatch {
			return nil, fmt.Errorf("offload: sweep batch %d exceeds max %d", b, r.mc.MaxBatch)
		}
		batch := make([][]float32, b)
		for i := range batch {
			batch[i] = mkItem(i)
		}
		_, cpuT := r.RunCPU(batch)
		_, asyncT, err := r.RunLAKE(batch, false)
		if err != nil {
			return nil, err
		}
		_, syncT, err := r.RunLAKE(batch, true)
		if err != nil {
			return nil, err
		}
		points = append(points, SweepPoint{Batch: b, CPU: cpuT, LAKE: asyncT, LAKESync: syncT})
	}
	return points, nil
}

// Crossover returns the smallest measured batch where the LAKE (async)
// path beats the CPU path, or 0 if it never does.
func Crossover(points []SweepPoint) int {
	for _, p := range points {
		if p.LAKE < p.CPU {
			return p.Batch
		}
	}
	return 0
}

// StandardBatches is the 1..1024 power-of-two x-axis of Figs 8, 10, 11.
func StandardBatches() []int {
	return []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
}
