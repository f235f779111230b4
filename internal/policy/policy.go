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

// AdaptiveConfig parameterizes the Fig 3 policy.
type AdaptiveConfig struct {
	// UtilThreshold is exec_threshold: above this moving-average GPU
	// utilization (percent), the kernel backs off to the CPU.
	UtilThreshold int
	// BatchThreshold is batch_threshold: below this batch size the GPU is
	// not performance profitable and the CPU is used.
	BatchThreshold int
}

const (
	// checkInterval rate-limits utilization queries ("if ...5 ms elapsed
	// since last check...").
	checkInterval = 5 * time.Millisecond
	// avgWindow is the utilization moving average's length in samples.
	avgWindow = 8
)

// DefaultAdaptiveConfig mirrors the constants the evaluation uses.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{
		UtilThreshold:  40,
		BatchThreshold: 8,
	}
}

// HelperUtilAvg is the one helper of the Fig 3 helper set every Adaptive
// program runs against (see the package comment).
const HelperUtilAvg int64 = 1

// Compile emits the paper's Fig 3 cu_policy as VM bytecode. The batch size
// arrives in r1; the program returns 1 (dev_func: offload) or 0 (cpu_func):
//
//	batch_sz  = r1
//	exec_rate = util_avg()  // rate-limited NVML query, moving average
//	if exec_rate >= exec_threshold: return 0            // contended
//	if batch_sz < batch_threshold: return 0             // unprofitable
//	return 1
//
// The output always verifies against the Fig 3 helper set.
func Compile(cfg AdaptiveConfig) Program {
	return Program{
		{Op: OpMov, Dst: 6, Src: 1},                                    // r6 = batch_sz (ctx)
		{Op: OpCall, Imm: HelperUtilAvg},                               // r0 = exec_rate
		{Op: OpJgeImm, Dst: 0, Imm: int64(cfg.UtilThreshold), Off: 3},  // contended -> cpu_func
		{Op: OpJltImm, Dst: 6, Imm: int64(cfg.BatchThreshold), Off: 2}, // small batch -> cpu_func
		{Op: OpMovImm, Dst: 0, Imm: int64(UseGPU)},                     // dev_func
		{Op: OpExit},
		{Op: OpMovImm, Dst: 0, Imm: int64(UseCPU)}, // cpu_func
		{Op: OpExit},
	}
}

// Adaptive is the Fig 3 cu_policy: a verified program run against the Fig
// 3 helper set, whose state (the rate-limited utilization moving average)
// the policy holds. Safe for concurrent use: the batch size travels in r1,
// so concurrent decisions share only the helper state.
type Adaptive struct {
	prog    Program
	helpers HelperSet

	clock *vtime.Clock
	query func() int // GPU utilization source, e.g. remoted NVML

	mu        sync.Mutex
	avg       *MovingAverage
	nextCheck time.Duration // virtual time of the next utilization query
}

// NewAdaptive builds the Fig 3 policy: Compile(cfg) loaded against query,
// which is invoked at most once per checkInterval of virtual time; between
// checks the last moving average is reused.
func NewAdaptive(cfg AdaptiveConfig, clock *vtime.Clock, query func() int) *Adaptive {
	a, err := Load(Compile(cfg), clock, query)
	if err != nil {
		panic(err) // Compile's output always verifies
	}
	return a
}

// Load verifies prog against the Fig 3 helper set built from (clock,
// query) and returns it as a policy: the eBPF-style install path for a
// caller's own program. The thresholds live in prog.
func Load(prog Program, clock *vtime.Clock, query func() int) (*Adaptive, error) {
	a := &Adaptive{prog: prog, clock: clock, query: query, avg: NewMovingAverage(avgWindow)}
	a.helpers = HelperSet{HelperUtilAvg: a.utilAvg}
	if err := Verify(prog, a.helpers); err != nil {
		return nil, err
	}
	return a, nil
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
// checkInterval of virtual time, adds the sample to the moving average and
// returns floor(average). For an integer threshold T, floor(avg) >= T
// exactly when avg >= T.
func (a *Adaptive) utilAvg([5]int64) int64 {
	a.mu.Lock()
	if now := a.clock.Now(); now >= a.nextCheck {
		a.nextCheck = now + checkInterval
		a.mu.Unlock()
		u := a.query() // may itself be a remoted call; don't hold the lock
		a.mu.Lock()
		a.avg.Add(float64(u))
	}
	avg := a.avg.Value()
	a.mu.Unlock()
	return int64(math.Floor(avg))
}

// Utilization returns the policy's current moving-average view of GPU
// utilization (percent).
func (a *Adaptive) Utilization() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.avg.Value()
}
