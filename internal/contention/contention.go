// Package contention reproduces the user/kernel accelerator contention
// experiments: Fig 1 (unmanaged contention destabilizes a GPU-accelerated
// user process when kernel ML workloads arrive) and Fig 13 (the Fig 3
// adaptive policy detects pressure via NVML, falls back to the CPU, and
// reclaims the GPU when the user process exits).
//
// The scenario driver advances virtual time in fixed steps. The user-space
// page-hashing application and the kernel classifiers occupy the simulated
// device for their demanded share of each step, so NVML utilization — the
// signal the policy samples through LAKE's remoted query — emerges from
// actual device occupancy rather than being scripted.
package contention

import (
	"time"

	"lakego/internal/core"
	"lakego/internal/policy"
)

// Step is the sampling interval of both timelines.
const Step = 250 * time.Millisecond

// Fig1Point is one sample of the unmanaged-contention timeline.
type Fig1Point struct {
	T time.Duration
	// PagesPerSec is the user hashing application's throughput.
	PagesPerSec float64
	// MovingAvg is the 4-sample moving average the figure overlays.
	MovingAvg float64
	// KernelDemand is the fraction of device time kernel ML consumed.
	KernelDemand float64
}

// Fig 1 timeline constants: the hashing app starts at T0; the page warmth
// classifier begins contending at T1 and the I/O latency predictor at T2.
const (
	Fig1Horizon = 10 * time.Second
	Fig1T0      = 1 * time.Second
	Fig1T1      = 4 * time.Second
	Fig1T2      = 7 * time.Second
)

// Peak hashing throughput: Fig 1's y-axis tops out around 2x10^7 pages/s.
const peakHashRate = 2e7

// Device demand fractions of the two kernel workloads when active, matched
// to Fig 1's ~68% worst-case degradation.
const (
	warmthDemand    = 0.42
	predictorDemand = 0.26
)

// Fig1 runs the unmanaged scenario: no policy, kernel work simply queues on
// the device alongside the user application.
func Fig1(rt *core.Runtime) []Fig1Point {
	clock := rt.Clock()
	dev := rt.Device()
	avg := policy.NewMovingAverage(4)
	var out []Fig1Point
	for t := time.Duration(0); t <= Fig1Horizon; t += Step {
		clock.AdvanceTo(t)
		demand := 0.0
		if t >= Fig1T1 {
			demand += warmthDemand
		}
		if t >= Fig1T2 {
			demand += predictorDemand
		}
		// Deterministic ripple stands in for measurement noise.
		ripple := 0.97 + 0.06*float64(int(t/Step)%3)/2
		p := Fig1Point{T: t, KernelDemand: demand}
		if t >= Fig1T0 {
			share := (1 - demand) * ripple
			if share < 0 {
				share = 0
			}
			p.PagesPerSec = peakHashRate * share
			// Reflect occupancy on the device for NVML observers.
			dev.OccupyUntil("user-hash", clock.Now()+time.Duration(share*float64(Step)))
		}
		if demand > 0 {
			dev.OccupyUntil("kernel-ml", clock.Now()+time.Duration(demand*float64(Step)))
		}
		p.MovingAvg = avg.Add(p.PagesPerSec)
		out = append(out, p)
	}
	return out
}

// Fig1Degradation returns the worst-case throughput drop between the
// uncontended and fully contended phases (paper: "up to 68%").
func Fig1Degradation(points []Fig1Point) float64 {
	var uncontended, worst float64
	for _, p := range points {
		if p.T >= Fig1T0 && p.T < Fig1T1 && p.PagesPerSec > uncontended {
			uncontended = p.PagesPerSec
		}
	}
	worst = uncontended
	for _, p := range points {
		if p.T >= Fig1T2 && p.PagesPerSec < worst {
			worst = p.PagesPerSec
		}
	}
	if uncontended == 0 {
		return 0
	}
	return 1 - worst/uncontended
}

// Fig13Point is one sample of the adaptive-policy timeline.
type Fig13Point struct {
	T time.Duration
	// HashingNorm is the user process's normalized throughput.
	HashingNorm float64
	// PredictorNorm is the kernel I/O latency predictor's normalized
	// throughput.
	PredictorNorm float64
	// OnGPU records where the policy routed the predictor this step.
	OnGPU bool
}

// Fig 13 timeline constants: the predictor runs throughout; the user
// process launches at T1, begins hashing on the GPU at T2 and terminates
// at T3.
const (
	Fig13Horizon = 30 * time.Second
	Fig13T1      = 8 * time.Second
	Fig13T2      = 12 * time.Second
	Fig13T3      = 22 * time.Second
)

// Kernel predictor throughput on the CPU fallback relative to the GPU.
const predictorCPUNorm = 0.45

// Fig13 runs the managed scenario with the paper's adaptive policy wired to
// the remoted NVML query.
func Fig13(rt *core.Runtime) []Fig13Point {
	clock := rt.Clock()
	dev := rt.Device()
	pol := rt.NewAdaptivePolicy(policy.DefaultAdaptiveConfig())
	const batch = 32 // steady inference batch per step
	var out []Fig13Point
	for t := time.Duration(0); t <= Fig13Horizon; t += Step {
		clock.AdvanceTo(t)
		hashingGPU := t >= Fig13T2 && t < Fig13T3
		hashingAlive := t >= Fig13T1 && t < Fig13T3

		// The policy decides on the utilization its NVML samples observed
		// over the trailing window — i.e. the previous step's occupancy,
		// exactly the one-sample lag a real deployment sees.
		p := Fig13Point{T: t}
		decision := pol.Decide(batch)
		if decision == policy.UseGPU {
			occupySlices(dev, "kernel-predictor", t, 0.15)
			p.PredictorNorm = 1.0
			p.OnGPU = true
		} else {
			p.PredictorNorm = predictorCPUNorm
		}

		if hashingGPU {
			occupySlices(dev, "user-hash", t, 0.72)
			p.HashingNorm = 1.0
		} else if hashingAlive {
			p.HashingNorm = 0.08 // staging input on the CPU before T2
		}
		out = append(out, p)
	}
	return out
}

// occupySlices lays the client's duty cycle across the step as interleaved
// busy slices, so any trailing utilization window inside the step observes
// ~frac busy time.
func occupySlices(dev interface {
	OccupySpan(client string, start, end time.Duration)
}, client string, stepStart time.Duration, frac float64) {
	const slices = 10
	sliceLen := Step / slices
	busy := time.Duration(frac * float64(sliceLen))
	for k := 0; k < slices; k++ {
		s := stepStart + time.Duration(k)*sliceLen
		dev.OccupySpan(client, s, s+busy)
	}
}

// Fig13Summary extracts the behaviour the paper highlights from a Fig13
// timeline: whether the predictor ran on the GPU before contention, fell
// back to the CPU while the user process hashed on the GPU, and reclaimed
// the GPU after it exited.
type Fig13Summary struct {
	GPUBefore     bool
	CPUFraction   float64 // fraction of contended steps spent on CPU
	ReclaimedBy   time.Duration
	ReclaimedGPU  bool
	HashingStable bool // user throughput stayed at 1.0 while on GPU
}

// Summarize computes the Fig13Summary.
func Summarize(points []Fig13Point) Fig13Summary {
	var s Fig13Summary
	s.HashingStable = true
	contended, onCPU := 0, 0
	for _, p := range points {
		switch {
		case p.T < Fig13T1:
			if p.OnGPU {
				s.GPUBefore = true
			}
		case p.T >= Fig13T2 && p.T < Fig13T3:
			contended++
			if !p.OnGPU {
				onCPU++
			}
			if p.HashingNorm < 0.99 {
				s.HashingStable = false
			}
		case p.T >= Fig13T3:
			if p.OnGPU && !s.ReclaimedGPU {
				s.ReclaimedGPU = true
				s.ReclaimedBy = p.T - Fig13T3
			}
		}
	}
	if contended > 0 {
		s.CPUFraction = float64(onCPU) / float64(contended)
	}
	return s
}
