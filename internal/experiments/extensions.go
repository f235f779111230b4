package experiments

import (
	"fmt"
	"strings"

	"lakego/internal/contention"
	"lakego/internal/kleio"
	"lakego/internal/kml"
	"lakego/internal/linnos"
	"lakego/internal/trace"
)

// Extension experiments (prefixed "x-"): results beyond the paper's
// figures, built on the same substrates. See DESIGN.md's extension
// inventory.

func init() {
	register(Experiment{ID: "x-automl", Title: "Benefit-aware ML modulation (§7.1 future work)", Run: XAutoML})
	register(Experiment{ID: "x-tiering", Title: "Two-tier page placement: oracle vs history scheduler", Run: XTiering})
	register(Experiment{ID: "x-multigpu", Title: "Second GPU as contention overflow target", Run: XMultiGPU})
	register(Experiment{ID: "x-readahead", Title: "Closed-loop adaptive readahead vs fixed", Run: XReadahead})
}

// XAutoML compares always-on ML with the benefit monitor on a workload
// where ML hurts (Azure*) and one where it helps (Mixed+).
func XAutoML() (string, error) {
	rt, err := newRuntime()
	if err != nil {
		return "", err
	}
	defer rt.Close()
	net, err := linnos.TrainedNetwork(linnos.Base)
	if err != nil {
		return "", err
	}
	pred, err := linnos.NewPredictor(rt, linnos.Base, net)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	b.WriteString(header("x-automl", "ML on/off modulation (paper §7.1 future work)"))
	b.WriteString(fmt.Sprintf("%-10s %12s %12s %12s %10s %8s\n",
		"Workload", "Baseline", "Always-ML", "Modulated", "ML used", "Final"))
	for _, w := range []linnos.Workload{
		linnos.SingleTraceWorkload(trace.Azure(), 3, 3000, 11),
		linnos.MixedWorkload("Mixed+", 3000, 15, 3),
	} {
		base, err := linnos.Replay(nil, w, linnos.DefaultReplayConfig(linnos.ModeBaseline))
		if err != nil {
			return "", err
		}
		always, err := linnos.Replay(pred, w, linnos.DefaultReplayConfig(linnos.ModeCPU))
		if err != nil {
			return "", err
		}
		auto, err := linnos.ReplayAutoML(pred, w, linnos.DefaultReplayConfig(linnos.ModeCPU))
		if err != nil {
			return "", err
		}
		state := "off"
		if auto.FinalEnabled {
			state = "on"
		}
		b.WriteString(fmt.Sprintf("%-10s %10.0fµs %10.0fµs %10.0fµs %9.0f%% %8s\n",
			w.Name, us(base.AvgRead), us(always.AvgRead), us(auto.AvgRead),
			auto.MLFraction*100, state))
	}
	b.WriteString("The monitor keeps ML engaged where reissue pays (Mixed+) and retires it\n" +
		"where it only adds inference latency (single traces).\n")
	return b.String(), nil
}

// XTiering runs the Kleio-style page placement simulation with the
// history-based baseline and the oracle, bracketing what a learned
// scheduler can gain.
func XTiering() (string, error) {
	var b strings.Builder
	b.WriteString(header("x-tiering", "two-tier page placement (Kleio's setting, §7.2)"))
	b.WriteString(fmt.Sprintf("%-22s %14s %12s\n", "Scheduler", "Fast-tier hits", "Migrations"))
	const pages, capacity, intervals = 90, 60, 128
	hist := kleio.NewAccessPattern(5, pages)
	hr, err := kleio.TierSim(hist, kleio.HistoryBased(15), pages, capacity, intervals)
	if err != nil {
		return "", err
	}
	b.WriteString(fmt.Sprintf("%-22s %13.1f%% %12d\n", "history-based", hr.FastHitRatio*100, hr.Migrations))

	sched, acc, err := kleio.TrainScheduler(5, 30, 28, 12, 14)
	if err != nil {
		return "", err
	}
	lp := kleio.NewAccessPattern(5, pages)
	lr, err := kleio.TierSim(lp, sched, pages, capacity, intervals)
	if err != nil {
		return "", err
	}
	b.WriteString(fmt.Sprintf("%-22s %13.1f%% %12d   (trained to %.0f%%)\n",
		"LSTM (trained, BPTT)", lr.FastHitRatio*100, lr.Migrations, acc*100))

	op := kleio.NewAccessPattern(5, pages)
	or, err := kleio.TierSim(op, kleio.NewOracle(op), pages, capacity, intervals)
	if err != nil {
		return "", err
	}
	b.WriteString(fmt.Sprintf("%-22s %13.1f%% %12d\n", "oracle (upper bound)", or.FastHitRatio*100, or.Migrations))
	b.WriteString("The trained LSTM anticipates periodic pages' phase flips that the history\n" +
		"heuristic chases one interval late — Kleio's §7.2 motivation, end to end.\n")
	return b.String(), nil
}

// XMultiGPU compares single-GPU CPU-fallback (Fig 13) with a two-GPU
// preference-ladder policy: the kernel overflows to the second device
// instead of degrading.
func XMultiGPU() (string, error) {
	rt, err := newRuntime()
	if err != nil {
		return "", err
	}
	defer rt.Close()
	single := contention.Summarize(contention.Fig13(rt))

	rt2, err := newRuntime()
	if err != nil {
		return "", err
	}
	defer rt2.Close()
	multi := contention.SummarizeMultiGPU(contention.Fig13MultiGPU(rt2))

	var b strings.Builder
	b.WriteString(header("x-multigpu", "two-device overflow vs CPU fallback (testbed has 2x A100)"))
	b.WriteString(fmt.Sprintf("%-28s %14s %14s\n", "", "single GPU", "two GPUs"))
	b.WriteString(fmt.Sprintf("%-28s %13.0f%% %13.0f%%\n",
		"predictor at full speed*", (1-single.CPUFraction)*100, multi.ContendedFullSpeed*100))
	b.WriteString(fmt.Sprintf("%-28s %14v %14v\n", "user hashing stable",
		single.HashingStable, multi.HashingStable))
	b.WriteString(fmt.Sprintf("%-28s %13.0f%% %13.0f%%\n", "steps on GPU1",
		0.0, multi.GPU1Frac*100))
	b.WriteString("*during the contended window. With a second device the kernel predictor\n" +
		"rides out user-space contention at GPU throughput instead of the 0.45x CPU\n" +
		"fallback, while the user process keeps its device.\n")
	return b.String(), nil
}

// XReadahead runs the deployed KML loop: the trained classifier drives
// readahead for a phase-switching application, against fixed settings.
func XReadahead() (string, error) {
	rt, err := newRuntime()
	if err != nil {
		return "", err
	}
	defer rt.Close()
	net, acc, err := kml.Train(13, kml.Dataset(13, 50), 12)
	if err != nil {
		return "", err
	}
	cls, err := kml.New(rt, net)
	if err != nil {
		return "", err
	}
	phases := []kml.Phase{
		{Pattern: kml.Sequential, Length: 2048},
		{Pattern: kml.Random, Length: 2048},
		{Pattern: kml.Sequential, Length: 2048},
		{Pattern: kml.Zipf, Length: 2048},
	}
	stream := kml.PhaseWorkload(99, phases)
	adaptive, err := kml.RunAdaptive(cls, kml.NewCacheSim(512), stream, nil)
	if err != nil {
		return "", err
	}
	fixedBig := kml.RunFixed(kml.NewCacheSim(512), stream, 64)
	fixedOff := kml.RunFixed(kml.NewCacheSim(512), stream, 0)

	var b strings.Builder
	b.WriteString(header("x-readahead", "classifier-driven readahead on a phase-switching app (§7.4)"))
	b.WriteString(fmt.Sprintf("%-26s %14s %10s\n", "Configuration", "Accesses/s", "Hit ratio"))
	b.WriteString(fmt.Sprintf("%-26s %14.0f %9.1f%%\n", "fixed readahead = 64", fixedBig.Throughput, fixedBig.HitRatio*100))
	b.WriteString(fmt.Sprintf("%-26s %14.0f %9.1f%%\n", "fixed readahead = 0", fixedOff.Throughput, fixedOff.HitRatio*100))
	b.WriteString(fmt.Sprintf("%-26s %14.0f %9.1f%%   (%d reclassifications, %v inference)\n",
		"KML adaptive (in loop)", adaptive.Throughput, adaptive.HitRatio*100,
		adaptive.Reclassifications, adaptive.InferenceTime))
	b.WriteString(fmt.Sprintf("Classifier trained to %.0f%%; the adaptive loop beats both fixed settings\n"+
		"(%.1fx over prefetch-always, %.1fx over prefetch-never) by following phases.\n",
		acc*100, adaptive.Throughput/fixedBig.Throughput, adaptive.Throughput/fixedOff.Throughput))
	return b.String(), nil
}
