package contention

import (
	"time"

	"lakego/internal/core"
	"lakego/internal/gpu"
	"lakego/internal/nvml"
	"lakego/internal/policy"
)

// Multi-GPU extension: the paper's testbed has two A100s but the evaluation
// shares one between kernel and user space. With a second device, the Fig 3
// policy generalizes to a preference ladder — GPU0, then GPU1, then the CPU
// — and the kernel predictor rides out user-space contention at full
// throughput instead of degrading to the CPU fallback.

// MultiGPUTarget identifies where the predictor ran in one step.
type MultiGPUTarget int

// Preference ladder outcomes.
const (
	TargetGPU0 MultiGPUTarget = iota
	TargetGPU1
	TargetCPU
)

func (t MultiGPUTarget) String() string {
	switch t {
	case TargetGPU0:
		return "GPU0"
	case TargetGPU1:
		return "GPU1"
	}
	return "CPU"
}

// MultiGPUPoint is one timeline sample.
type MultiGPUPoint struct {
	T             time.Duration
	HashingNorm   float64
	PredictorNorm float64
	Target        MultiGPUTarget
}

// Fig13MultiGPU reruns the Fig 13 scenario with a second device available
// to the kernel. The user process still hashes on GPU0 (it owns it); the
// kernel's ladder policy probes per-device utilization and overflows to
// GPU1 under contention.
func Fig13MultiGPU(rt *core.Runtime) []MultiGPUPoint {
	clock := rt.Clock()
	dev0 := rt.Device()
	dev1 := gpu.New(dev0.Spec(), clock)

	mk := func(dev *gpu.Device) *policy.Adaptive {
		return policy.NewAdaptive(policy.DefaultAdaptiveConfig(), clock,
			func() int { return nvml.DeviceGetUtilizationRates(dev).GPU })
	}
	pol0, pol1 := mk(dev0), mk(dev1)

	const batch = 32
	var out []MultiGPUPoint
	for t := time.Duration(0); t <= Fig13Horizon; t += Step {
		clock.AdvanceTo(t)
		hashingGPU := t >= Fig13T2 && t < Fig13T3
		hashingAlive := t >= Fig13T1 && t < Fig13T3

		p := MultiGPUPoint{T: t}
		switch {
		case pol0.Decide(batch) == policy.UseGPU:
			occupySlices(dev0, "kernel-predictor", t, 0.15)
			p.PredictorNorm, p.Target = 1.0, TargetGPU0
		case pol1.Decide(batch) == policy.UseGPU:
			occupySlices(dev1, "kernel-predictor", t, 0.15)
			p.PredictorNorm, p.Target = 1.0, TargetGPU1
		default:
			p.PredictorNorm, p.Target = predictorCPUNorm, TargetCPU
		}

		if hashingGPU {
			occupySlices(dev0, "user-hash", t, 0.72)
			p.HashingNorm = 1.0
		} else if hashingAlive {
			p.HashingNorm = 0.08
		}
		out = append(out, p)
	}
	return out
}

// MultiGPUSummary aggregates a Fig13MultiGPU timeline.
type MultiGPUSummary struct {
	// Fractions of steps per target.
	GPU0Frac, GPU1Frac, CPUFrac float64
	// AvgPredictorNorm across the whole run.
	AvgPredictorNorm float64
	// ContendedFullSpeed is the fraction of the contended window the
	// predictor still ran at full (GPU) throughput.
	ContendedFullSpeed float64
	HashingStable      bool
}

// SummarizeMultiGPU computes the summary.
func SummarizeMultiGPU(points []MultiGPUPoint) MultiGPUSummary {
	var s MultiGPUSummary
	s.HashingStable = true
	contended, contendedFull := 0, 0
	for _, p := range points {
		switch p.Target {
		case TargetGPU0:
			s.GPU0Frac++
		case TargetGPU1:
			s.GPU1Frac++
		default:
			s.CPUFrac++
		}
		s.AvgPredictorNorm += p.PredictorNorm
		if p.T >= Fig13T2 && p.T < Fig13T3 {
			contended++
			if p.PredictorNorm >= 1.0 {
				contendedFull++
			}
			if p.HashingNorm < 0.99 {
				s.HashingStable = false
			}
		}
	}
	n := float64(len(points))
	if n > 0 {
		s.GPU0Frac /= n
		s.GPU1Frac /= n
		s.CPUFrac /= n
		s.AvgPredictorNorm /= n
	}
	if contended > 0 {
		s.ContendedFullSpeed = float64(contendedFull) / float64(contended)
	}
	return s
}
