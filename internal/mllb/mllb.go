// Package mllb reproduces the load balancing workload (§7.3): MLLB's
// multi-layer perceptron for task-stealing decisions [Chen et al.], ported
// to CUDA and placed in a kernel module using LAKE.
//
// The model consumes the migration feature vectors of the sched simulator
// (can_migrate_task's inputs) and is trained on ground-truth labels the
// simulator produces. Figure 10 measures classification time for batches of
// tasks on the CPU versus through LAKE; Table 3 puts the crossover at 256
// inputs, which the calibrated kernel-space CPU cost reproduces ("Using a
// GPU is only profitable for batches larger than 128 inputs").
package mllb

import (
	"fmt"
	"time"

	"lakego/internal/batcher"
	"lakego/internal/core"
	"lakego/internal/nn"
	"lakego/internal/offload"
	"lakego/internal/policy"
	"lakego/internal/sched"
)

// InputWidth matches the sched feature vector.
const InputWidth = sched.VectorSize

// Sizes is the MLLB perceptron shape.
func Sizes() []int { return []int{InputWidth, 64, 2} }

// Kernel-space CPU cost: a ~1.2 kFLOP perceptron vectorizes to ~0.28 µs per
// decision plus per-invocation FPU bracketing, placing the Fig 10 crossover
// against the LAKE async path (~70 µs fixed) at batch 256.
const (
	cpuFixed   = 2 * time.Microsecond
	cpuPerItem = 280 * time.Nanosecond
)

// MaxBatch bounds one classification batch (Fig 10 sweeps to 1024).
const MaxBatch = 1024

// Balancer is the MLLB model wired through LAKE. It implements
// sched.Balancer for end-to-end scheduling runs and exposes batched
// classification for the Fig 10 sweep.
type Balancer struct {
	net    *nn.Network
	runner *offload.Runner
}

// New wraps a trained network (shape Sizes()) for runtime rt.
func New(rt *core.Runtime, net *nn.Network) (*Balancer, error) {
	got := net.Sizes()
	want := Sizes()
	if len(got) != len(want) || got[0] != want[0] || got[len(got)-1] != want[len(want)-1] {
		return nil, fmt.Errorf("mllb: network sizes %v, want %v", got, want)
	}
	runner, err := offload.NewRunner(rt, offload.NewSlot(net).Serve(batcher.ModelConfig{
		Name:        "mllb_nn",
		InputWidth:  InputWidth,
		OutputWidth: 2,
		MaxBatch:    MaxBatch,
		CPUFixed:    cpuFixed,
		CPUPerItem:  cpuPerItem,
	}))
	if err != nil {
		return nil, err
	}
	return &Balancer{net: net, runner: runner}, nil
}

// Net returns the underlying network.
func (b *Balancer) Net() *nn.Network { return b.net }

// Runner exposes the offload runner for sweeps.
func (b *Balancer) Runner() *offload.Runner { return b.runner }

// ShouldMigrate implements sched.Balancer with a single real inference.
func (b *Balancer) ShouldMigrate(f sched.Features) bool {
	return b.net.Predict(f.Vector()) == 1
}

// ClassifyCPU scores a batch of migration candidates on the CPU path.
func (b *Balancer) ClassifyCPU(batch [][]float32) ([]bool, time.Duration) {
	out, d := b.runner.RunCPU(batch)
	return argmax1(out), d
}

// ClassifyLAKE scores a batch through LAKE.
func (b *Balancer) ClassifyLAKE(batch [][]float32, sync bool) ([]bool, time.Duration, error) {
	out, d, err := b.runner.RunLAKE(batch, sync)
	if err != nil {
		return nil, 0, err
	}
	return argmax1(out), d, nil
}

// ClassifyAuto routes the batch through pol and scores on the decided
// path, falling back to the kernel CPU path when lakeD is unavailable —
// load-balancing decisions cannot wait out a daemon restart. The returned
// Decision is the path that ran.
func (b *Balancer) ClassifyAuto(batch [][]float32, pol policy.Func) ([]bool, policy.Decision, time.Duration, error) {
	out, dec, d, err := b.runner.RunAuto(batch, pol)
	if err != nil {
		return nil, dec, 0, err
	}
	return argmax1(out), dec, d, nil
}

func argmax1(out [][]float32) []bool {
	res := make([]bool, len(out))
	for i, y := range out {
		res[i] = y[1] > y[0]
	}
	return res
}

// TrainFromSim runs a skewed scheduling workload, harvests the simulator's
// labeled migration opportunities, and fits a fresh MLLB network. Returns
// the network and its training accuracy.
func TrainFromSim(seed int64, epochs int) (*nn.Network, float64, error) {
	cfg := sched.DefaultConfig()
	cfg.Seed = seed
	sim, err := sched.NewSim(cfg, sched.Heuristic{})
	if err != nil {
		return nil, 0, err
	}
	sim.SpawnRandom(400, time.Millisecond, 40*time.Millisecond)
	sim.Run(30 * time.Second)
	samples := sim.Samples()
	if len(samples) == 0 {
		return nil, 0, fmt.Errorf("mllb: simulator produced no samples")
	}
	xs := make([][]float32, len(samples))
	labels := make([]int, len(samples))
	for i, s := range samples {
		xs[i] = s.Features.Vector()
		if s.Beneficial {
			labels[i] = 1
		}
	}
	net := nn.New(seed, Sizes()...)
	for e := 0; e < epochs; e++ {
		for at := 0; at < len(xs); at += 64 {
			end := at + 64
			if end > len(xs) {
				end = len(xs)
			}
			if _, err := net.TrainBatch(xs[at:end], labels[at:end], 0.05); err != nil {
				return nil, 0, err
			}
		}
	}
	return net, net.Accuracy(xs, labels), nil
}

// Sweep produces the Fig 10 series.
func Sweep(b *Balancer, batches []int) ([]offload.SweepPoint, error) {
	return offload.Sweep(b.runner, batches, func(i int) []float32 {
		f := sched.Features{
			SrcQueueLen: i%20 + 1, DstQueueLen: i % 5,
			SrcLoad: float64(i%20 + 1), DstLoad: float64(i % 5),
			TaskRemaining: time.Duration(i%50) * time.Millisecond,
			TaskWeight:    1 + i%3,
			CacheHot:      i%2 == 0,
			SameNode:      i%3 == 0,
			Imbalance:     float64(i%10) / 10,
		}
		return f.Vector()
	})
}
