package experiments

import (
	"fmt"
	"strings"

	"lakego/internal/contention"
	"lakego/internal/linnos"
	"lakego/internal/trace"
)

func init() {
	register(Experiment{ID: "fig1", Title: "Unmanaged GPU contention between user and kernel space", Run: Fig1})
	register(Experiment{ID: "fig7", Title: "End-to-end I/O latency prediction on the NVMe array", Run: Fig7})
	register(Experiment{ID: "fig13", Title: "Adaptive contention policy timeline", Run: Fig13})
}

// Fig1 reproduces Fig 1: throughput of a GPU-accelerated user hashing
// application as kernel ML workloads start contending, with no management.
func Fig1() (string, error) {
	rt, err := newRuntime()
	if err != nil {
		return "", err
	}
	defer rt.Close()
	pts := contention.Fig1(rt)
	var b strings.Builder
	b.WriteString(header("fig1", "unmanaged contention (paper Fig 1)"))
	b.WriteString(fmt.Sprintf("%-10s %20s %14s %16s\n", "Time (s)", "Pages/sec (x10^7)", "MovAvg", "Kernel demand"))
	for _, p := range pts {
		b.WriteString(fmt.Sprintf("%-10.2f %20.2f %14.2f %16.2f\n",
			p.T.Seconds(), p.PagesPerSec/1e7, p.MovingAvg/1e7, p.KernelDemand))
	}
	b.WriteString(fmt.Sprintf("Worst-case degradation: %.0f%% (paper: up to 68%%)\n",
		contention.Fig1Degradation(pts)*100))
	return b.String(), nil
}

// Fig7TraceLen is the per-device trace length of the fig7 replay; the
// benchmark suite uses a smaller value via Fig7WithLength.
const Fig7TraceLen = 4000

// Fig7 reproduces Fig 7: average read latency for each workload under the
// kernel default, the LinnOS CPU models, and LAKE's policy-modulated
// GPU/CPU execution.
func Fig7() (string, error) { return Fig7WithLength(Fig7TraceLen) }

// Fig7WithLength runs the Fig 7 matrix with a configurable per-device trace
// length.
func Fig7WithLength(n int) (string, error) {
	rt, err := newRuntime()
	if err != nil {
		return "", err
	}
	defer rt.Close()

	workloads := []linnos.Workload{
		linnos.SingleTraceWorkload(trace.Azure(), 3, n, 11),
		linnos.SingleTraceWorkload(trace.Cosmos(), 3, n, 12),
		linnos.SingleTraceWorkload(trace.BingI(), 3, n, 13),
		linnos.MixedWorkload("Mixed", n, 14, 1),
		linnos.MixedWorkload("Mixed+", n, 15, 3),
	}

	preds := map[linnos.ModelKind]*linnos.Predictor{}
	for _, kind := range linnos.Kinds() {
		net, err := linnos.TrainedNetwork(kind)
		if err != nil {
			return "", err
		}
		p, err := linnos.NewPredictor(rt, kind, net)
		if err != nil {
			return "", err
		}
		preds[kind] = p
	}

	var b strings.Builder
	b.WriteString(header("fig7", "average read latency by workload and config (paper Fig 7)"))
	b.WriteString(fmt.Sprintf("%-10s %10s", "Workload", "Baseline"))
	for _, kind := range linnos.Kinds() {
		b.WriteString(fmt.Sprintf(" %9s-cpu %8s-LAKE", kind, kind))
	}
	b.WriteString("   (µs)\n")
	for _, w := range workloads {
		base, err := linnos.Replay(nil, w, linnos.DefaultReplayConfig(linnos.ModeBaseline))
		if err != nil {
			return "", err
		}
		b.WriteString(fmt.Sprintf("%-10s %10.0f", w.Name, us(base.AvgRead)))
		for _, kind := range linnos.Kinds() {
			cpu, err := linnos.Replay(preds[kind], w, linnos.DefaultReplayConfig(linnos.ModeCPU))
			if err != nil {
				return "", err
			}
			lk, err := linnos.Replay(preds[kind], w, linnos.DefaultReplayConfig(linnos.ModeLAKE))
			if err != nil {
				return "", err
			}
			b.WriteString(fmt.Sprintf(" %13.0f %13.0f", us(cpu.AvgRead), us(lk.AvgRead)))
		}
		b.WriteString("\n")
	}
	b.WriteString("Shape targets: single traces — baseline wins (ML overhead, no variance to\n" +
		"exploit); Mixed/Mixed+ — ML beats baseline; LAKE's advantage grows with\n" +
		"model size as per-I/O CPU inference saturates the core.\n")
	return b.String(), nil
}

// Fig13 reproduces Fig 13: kernel and user throughput under the adaptive
// contention-averse policy.
func Fig13() (string, error) {
	rt, err := newRuntime()
	if err != nil {
		return "", err
	}
	defer rt.Close()
	pts := contention.Fig13(rt)
	var b strings.Builder
	b.WriteString(header("fig13", "adaptive contention policy (paper Fig 13)"))
	b.WriteString(fmt.Sprintf("%-10s %14s %16s %8s\n", "Time (s)", "Hashing (u)", "Predictor (k)", "Target"))
	for i, p := range pts {
		if i%4 != 0 { // 1s resolution for readability
			continue
		}
		target := "CPU"
		if p.OnGPU {
			target = "GPU"
		}
		b.WriteString(fmt.Sprintf("%-10.2f %14.2f %16.2f %8s\n",
			p.T.Seconds(), p.HashingNorm, p.PredictorNorm, target))
	}
	s := contention.Summarize(pts)
	b.WriteString(fmt.Sprintf(
		"GPU before contention: %v; CPU fraction during contention: %.2f;\n"+
			"user throughput stable: %v; GPU reclaimed %.1fs after user exit.\n",
		s.GPUBefore, s.CPUFraction, s.HashingStable, s.ReclaimedBy.Seconds()))
	return b.String(), nil
}
