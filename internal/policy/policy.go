package policy

import (
	"math"
	"sync"
	"time"

	"lakego/internal/vtime"
)

// Decision is where a policy routes one invocation.
type Decision int

// Policy outcomes: run on the CPU fallback or offload to the accelerator.
const (
	UseCPU Decision = iota
	UseGPU
)

func (d Decision) String() string {
	if d == UseGPU {
		return "GPU"
	}
	return "CPU"
}

// Func is the policy interface: given the pending batch size, pick an
// execution target. It corresponds to the paper's policy callback invoked
// "automatically by the kernel during the application's execution".
type Func func(batchSize int) Decision

// MovingAverage is the windowed moving average Fig 3's policy applies to
// GPU utilization samples. The zero value is unusable; construct with
// NewMovingAverage. Not safe for concurrent use: Adaptive serializes it.
type MovingAverage struct {
	samples []float64
	next    int
	n       int
	sum     float64
}

// NewMovingAverage creates an average over the last window samples.
func NewMovingAverage(window int) *MovingAverage {
	if window <= 0 {
		window = 1
	}
	return &MovingAverage{samples: make([]float64, window)}
}

// Add incorporates a sample and returns the updated average.
func (m *MovingAverage) Add(v float64) float64 {
	if m.n == len(m.samples) {
		m.sum -= m.samples[m.next]
	} else {
		m.n++
	}
	m.samples[m.next] = v
	m.sum += v
	m.next = (m.next + 1) % len(m.samples)
	return m.sum / float64(m.n)
}

// Value returns the current average (0 with no samples).
func (m *MovingAverage) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// LatencySource exposes observed latency percentiles in virtual time.
// *telemetry.Histogram satisfies it (the interface lives here so policy
// does not import the telemetry plane it is fed by).
type LatencySource interface {
	// QuantileDuration estimates the q-quantile of observed latencies.
	QuantileDuration(q float64) time.Duration
	// Count reports how many observations back the estimate.
	Count() int64
}

// AdaptiveConfig parameterizes the Fig 3 policy.
type AdaptiveConfig struct {
	// CheckInterval rate-limits utilization queries ("if ...5 ms elapsed
	// since last check...").
	CheckInterval time.Duration
	// UtilThreshold is exec_threshold: above this moving-average GPU
	// utilization (percent), the kernel backs off to the CPU.
	UtilThreshold int
	// BatchThreshold is batch_threshold: below this batch size the GPU is
	// not performance profitable and the CPU is used.
	BatchThreshold int
	// Window is the moving-average window in samples.
	Window int

	// UseObservedLatency opts into telemetry-fed profitability: once both
	// latency sources (SetLatencySources) hold at least MinSamples
	// observations, the static BatchThreshold gate is replaced by a direct
	// comparison of observed per-item GPU vs CPU latency at
	// LatencyQuantile. The contention gate (UtilThreshold) always applies.
	UseObservedLatency bool
	// LatencyQuantile is the compared percentile. Default 0.5 (median).
	LatencyQuantile float64
	// MinSamples is the per-source observation floor below which the
	// policy falls back to BatchThreshold. Default 16.
	MinSamples int64
}

// DefaultAdaptiveConfig mirrors the constants the evaluation uses.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{
		CheckInterval:  5 * time.Millisecond,
		UtilThreshold:  40,
		BatchThreshold: 8,
		Window:         8,
	}
}

// Helper numbers of the Fig 3 helper set every Adaptive program runs
// against (see the package comment for the table).
const (
	HelperUtilAvg     int64 = 1
	HelperItemLatency int64 = 2
)

// HelperItemLatency's r1 argument: which path's per-item latency to read.
const (
	PathGPU int64 = 0
	PathCPU int64 = 1
)

// Compile emits the paper's Fig 3 cu_policy as VM bytecode. The batch size
// arrives in r1; the program returns 1 (dev_func: offload) or 0 (cpu_func):
//
//	batch_sz  = r1
//	exec_rate = util_avg()  // rate-limited NVML query, moving average
//	if exec_rate >= exec_threshold: return 0            // contended
//	if observed latency:                                // cfg.UseObservedLatency
//	    gpu, cpu = item_latency(GPU), item_latency(CPU)
//	    if gpu >= 0 && cpu >= 0: return gpu <= cpu ? 1 : 0
//	if batch_sz < batch_threshold: return 0             // unprofitable
//	return 1
//
// The output always verifies against the Fig 3 helper set.
func Compile(cfg AdaptiveConfig) Program {
	var observed Program
	if cfg.UseObservedLatency {
		observed = Program{
			{Op: OpMovImm, Dst: 1, Imm: PathGPU},
			{Op: OpCall, Imm: HelperItemLatency},
			{Op: OpMov, Dst: 7, Src: 0}, // r7 = GPU ns/item
			{Op: OpMovImm, Dst: 1, Imm: PathCPU},
			{Op: OpCall, Imm: HelperItemLatency},   // r0 = CPU ns/item
			{Op: OpJltImm, Dst: 7, Imm: 0, Off: 3}, // GPU unknown -> batch gate
			{Op: OpJltImm, Dst: 0, Imm: 0, Off: 2}, // CPU unknown -> batch gate
			{Op: OpJgeX, Dst: 0, Src: 7, Off: 2},   // GPU <= CPU -> dev_func
			{Op: OpJmp, Off: 3},                    // -> cpu_func
		}
	}
	p := Program{
		{Op: OpMov, Dst: 6, Src: 1},      // r6 = batch_sz (ctx)
		{Op: OpCall, Imm: HelperUtilAvg}, // r0 = exec_rate
		{Op: OpJgeImm, Dst: 0, Imm: int64(cfg.UtilThreshold), Off: int16(len(observed)) + 3}, // contended -> cpu_func
	}
	p = append(p, observed...)
	return append(p,
		Instruction{Op: OpJltImm, Dst: 6, Imm: int64(cfg.BatchThreshold), Off: 2}, // small batch -> cpu_func
		Instruction{Op: OpMovImm, Dst: 0, Imm: int64(UseGPU)},                     // dev_func
		Instruction{Op: OpExit},
		Instruction{Op: OpMovImm, Dst: 0, Imm: int64(UseCPU)}, // cpu_func
		Instruction{Op: OpExit},
	)
}

// Adaptive is the Fig 3 cu_policy: a verified program run against the Fig
// 3 helper set, whose state (the rate-limited utilization moving average
// and the latency sources) the policy holds. Safe for concurrent use: the
// batch size travels in r1, so concurrent decisions share only the helper
// state.
type Adaptive struct {
	prog    Program
	helpers HelperSet

	cfg   AdaptiveConfig
	clock *vtime.Clock
	query func() int // GPU utilization source, e.g. remoted NVML

	mu        sync.Mutex
	avg       *MovingAverage
	nextCheck time.Duration // virtual time of the next utilization query

	gpuLat, cpuLat LatencySource
}

// NewAdaptive builds the Fig 3 policy: Compile(cfg) loaded against query,
// which is invoked at most once per CheckInterval; between checks the last
// moving average is reused.
func NewAdaptive(cfg AdaptiveConfig, clock *vtime.Clock, query func() int) *Adaptive {
	a, err := Load(Compile(cfg), cfg, clock, query)
	if err != nil {
		panic(err) // Compile's output always verifies
	}
	return a
}

// Load verifies prog against the Fig 3 helper set built from (cfg, clock,
// query) and returns it as a policy: the eBPF-style install path for a
// caller's own program.
func Load(prog Program, cfg AdaptiveConfig, clock *vtime.Clock, query func() int) (*Adaptive, error) {
	if cfg.CheckInterval <= 0 {
		cfg.CheckInterval = 5 * time.Millisecond
	}
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	if cfg.LatencyQuantile <= 0 || cfg.LatencyQuantile > 1 {
		cfg.LatencyQuantile = 0.5
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 16
	}
	a := &Adaptive{prog: prog, cfg: cfg, clock: clock, query: query, avg: NewMovingAverage(cfg.Window)}
	a.helpers = HelperSet{HelperUtilAvg: a.utilAvg, HelperItemLatency: a.itemLatency}
	if err := Verify(prog, a.helpers); err != nil {
		return nil, err
	}
	return a, nil
}

// SetLatencySources feeds the policy observed per-item latency series for
// each path (typically the runtime's shared telemetry histograms), read by
// HelperItemLatency. Fig 3's compiled program consults them only when
// AdaptiveConfig.UseObservedLatency is set.
func (a *Adaptive) SetLatencySources(gpu, cpu LatencySource) {
	a.mu.Lock()
	a.gpuLat, a.cpuLat = gpu, cpu
	a.mu.Unlock()
}

// Decide implements Func: it runs the program with the batch size in r1.
// A runtime fault or a 0 result falls back to the CPU.
func (a *Adaptive) Decide(batchSize int) Decision {
	r, err := runVerified(a.prog, a.helpers, int64(batchSize))
	if err != nil || r == 0 {
		return UseCPU
	}
	return UseGPU
}

// utilAvg is HelperUtilAvg: it queries utilization at most once per
// CheckInterval of virtual time, adds the sample to the moving average and
// returns floor(average). For an integer threshold T, floor(avg) >= T
// exactly when avg >= T.
func (a *Adaptive) utilAvg([5]int64) int64 {
	a.mu.Lock()
	if now := a.clock.Now(); now >= a.nextCheck {
		a.nextCheck = now + a.cfg.CheckInterval
		a.mu.Unlock()
		u := a.query() // may itself be a remoted call; don't hold the lock
		a.mu.Lock()
		a.avg.Add(float64(u))
	}
	avg := a.avg.Value()
	a.mu.Unlock()
	return int64(math.Floor(avg))
}

// itemLatency is HelperItemLatency: the per-item latency in ns at
// LatencyQuantile of the path named by r1, or -1 while that source is unset
// or holds fewer than MinSamples observations.
func (a *Adaptive) itemLatency(args [5]int64) int64 {
	var src LatencySource
	a.mu.Lock()
	switch args[0] {
	case PathGPU:
		src = a.gpuLat
	case PathCPU:
		src = a.cpuLat
	}
	a.mu.Unlock()
	if src == nil || src.Count() < a.cfg.MinSamples {
		return -1
	}
	return int64(src.QuantileDuration(a.cfg.LatencyQuantile))
}

// Utilization returns the policy's current moving-average view of GPU
// utilization (percent).
func (a *Adaptive) Utilization() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.avg.Value()
}
