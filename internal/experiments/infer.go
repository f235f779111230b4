package experiments

import (
	"fmt"
	"strings"
	"time"

	"lakego/internal/core"
	"lakego/internal/kleio"
	"lakego/internal/kml"
	"lakego/internal/linnos"
	"lakego/internal/malware"
	"lakego/internal/mllb"
	"lakego/internal/nn"
	"lakego/internal/offload"
)

func init() {
	register(Experiment{ID: "fig8", Title: "I/O latency prediction time vs batch size", Run: Fig8})
	register(Experiment{ID: "fig9", Title: "Page warmth classification time vs batch size", Run: Fig9})
	register(Experiment{ID: "fig10", Title: "Load balancing classification time vs batch size", Run: Fig10})
	register(Experiment{ID: "fig11", Title: "Readahead classification time vs batch size", Run: Fig11})
	register(Experiment{ID: "fig12", Title: "Malware detection KNN time vs feature count", Run: Fig12})
	register(Experiment{ID: "table3", Title: "Accelerator profitability crossover points", Run: Table3})
}

func renderSweep(b *strings.Builder, pts []offload.SweepPoint) {
	b.WriteString(fmt.Sprintf("%-8s %14s %14s %14s\n", "Batch", "CPU (µs)", "LAKE (µs)", "LAKE sync (µs)"))
	for _, p := range pts {
		b.WriteString(fmt.Sprintf("%-8d %14.2f %14.2f %14.2f\n",
			p.Batch, us(p.CPU), us(p.LAKE), us(p.LAKESync)))
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// Fig8 reproduces Fig 8: LinnOS inference time for the base and augmented
// models across batch sizes, CPU vs LAKE.
func Fig8() (string, error) {
	rt, err := newRuntime()
	if err != nil {
		return "", err
	}
	defer rt.Close()
	rt.Clock().Advance(time.Second)
	var b strings.Builder
	b.WriteString(header("fig8", "LinnOS inference time by batch (paper Fig 8)"))
	for _, kind := range linnos.Kinds() {
		pts, err := linnos.InferenceSweep(rt, kind, offload.StandardBatches())
		if err != nil {
			return "", err
		}
		b.WriteString(fmt.Sprintf("\nModel %s (crossover at batch %d):\n", kind, offload.Crossover(pts)))
		renderSweep(&b, pts)
	}
	return b.String(), nil
}

// Fig9 reproduces Fig 9: Kleio page warmth classification time for batches
// of 20-1160 pages (the paper plots only the synchronous series because
// TensorFlow moves data itself).
func Fig9() (string, error) {
	rt, err := newRuntime()
	if err != nil {
		return "", err
	}
	defer rt.Close()
	cls, err := kleio.New(rt, 7)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(header("fig9", "Kleio page warmth inference time (paper Fig 9)"))
	b.WriteString(fmt.Sprintf("%-8s %16s %16s\n", "Pages", "LAKE sync (ms)", "CPU (ms)"))
	for n := 20; n <= 1160; n += 120 {
		pages := make([]kleio.PageHistory, n)
		for i := range pages {
			for t := 0; t < kleio.HistoryLen; t++ {
				pages[i][t] = float32((i + t) % 40)
			}
		}
		_, lakeT, err := cls.ClassifyLAKE(pages)
		if err != nil {
			return "", err
		}
		_, cpuT := cls.ClassifyCPU(pages)
		b.WriteString(fmt.Sprintf("%-8d %16.1f %16.1f\n",
			n, float64(lakeT.Microseconds())/1e3, float64(cpuT.Microseconds())/1e3))
	}
	return b.String(), nil
}

// Fig10 reproduces Fig 10: MLLB classification time across batch sizes.
func Fig10() (string, error) {
	rt, err := newRuntime()
	if err != nil {
		return "", err
	}
	defer rt.Close()
	bal, err := mllb.New(rt, nn.New(10, mllb.Sizes()...))
	if err != nil {
		return "", err
	}
	pts, err := mllb.Sweep(bal, offload.StandardBatches())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(header("fig10", "MLLB load balancing inference time (paper Fig 10)"))
	b.WriteString(fmt.Sprintf("Crossover at batch %d (Table 3: 256)\n", offload.Crossover(pts)))
	renderSweep(&b, pts)
	return b.String(), nil
}

// Fig11 reproduces Fig 11: KML readahead classification time across batch
// sizes.
func Fig11() (string, error) {
	rt, err := newRuntime()
	if err != nil {
		return "", err
	}
	defer rt.Close()
	cls, err := kml.New(rt, nn.New(11, kml.Sizes()...))
	if err != nil {
		return "", err
	}
	pts, err := kml.Sweep(cls, offload.StandardBatches())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(header("fig11", "KML readahead inference time (paper Fig 11)"))
	b.WriteString(fmt.Sprintf("Crossover at batch %d (Table 3: 64)\n", offload.Crossover(pts)))
	renderSweep(&b, pts)
	return b.String(), nil
}

// Fig12 reproduces Fig 12: 4096 KNN queries against 16384 reference points,
// sweeping feature counts.
func Fig12() (string, error) {
	rt, err := newRuntime()
	if err != nil {
		return "", err
	}
	defer rt.Close()
	pts, err := malware.Fig12Sweep(rt, malware.Fig12Dims())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(header("fig12", "malware detection KNN time (paper Fig 12)"))
	b.WriteString(fmt.Sprintf("%-8s %14s %14s %14s %12s %10s\n",
		"Features", "CPU (µs)", "LAKE (µs)", "LAKE sync", "Speedup", "Overhead"))
	var overheadSum float64
	for _, p := range pts {
		overhead := float64(p.LAKESync-p.Direct) / float64(p.Direct) * 100
		overheadSum += overhead
		b.WriteString(fmt.Sprintf("%-8d %14.0f %14.0f %14.0f %11.0fx %9.1f%%\n",
			p.Dim, us(p.CPU), us(p.LAKE), us(p.LAKESync),
			float64(p.CPU)/float64(p.LAKE), overhead))
	}
	b.WriteString(fmt.Sprintf("Average LAKE overhead vs direct user-space CUDA: %.1f%% (paper: 4.2%%)\n",
		overheadSum/float64(len(pts))))
	return b.String(), nil
}

// Table3 reproduces Table 3's crossover column by measuring each workload.
func Table3() (string, error) {
	rt, err := newRuntime()
	if err != nil {
		return "", err
	}
	defer rt.Close()
	rt.Clock().Advance(time.Second)
	var b strings.Builder
	b.WriteString(header("table3", "profitability crossover points (paper Table 3)"))
	b.WriteString(fmt.Sprintf("%-24s %-14s %10s %10s\n", "Application", "Algorithm", "Measured", "Paper"))

	linPts, err := linnos.InferenceSweep(rt, linnos.Base, offload.StandardBatches())
	if err != nil {
		return "", err
	}
	b.WriteString(fmt.Sprintf("%-24s %-14s %10d %10d\n",
		"I/O latency prediction", "Neural Net", offload.Crossover(linPts), 8))

	// Page warmth: GPU profitable from batch 1 (Table 3 row 2).
	kcls, err := kleio.New(rt, 3)
	if err != nil {
		return "", err
	}
	one := []kleio.PageHistory{{}}
	_, lakeT, err := kcls.ClassifyLAKE(one)
	if err != nil {
		return "", err
	}
	_, cpuT := kcls.ClassifyCPU(one)
	kCross := 1
	if lakeT >= cpuT {
		kCross = 0
	}
	b.WriteString(fmt.Sprintf("%-24s %-14s %10d %10d\n", "Page warmth", "LSTM", kCross, 1))

	bal, err := mllb.New(rt, nn.New(2, mllb.Sizes()...))
	if err != nil {
		return "", err
	}
	mPts, err := mllb.Sweep(bal, offload.StandardBatches())
	if err != nil {
		return "", err
	}
	b.WriteString(fmt.Sprintf("%-24s %-14s %10d %10d\n",
		"Load balancing", "Neural Net", offload.Crossover(mPts), 256))

	kcl, err := kml.New(rt, nn.New(4, kml.Sizes()...))
	if err != nil {
		return "", err
	}
	kPts, err := kml.Sweep(kcl, offload.StandardBatches())
	if err != nil {
		return "", err
	}
	b.WriteString(fmt.Sprintf("%-24s %-14s %10d %10d\n",
		"Filesystem prefetching", "Neural Net", offload.Crossover(kPts), 64))

	mw, err := malwareCrossover(rt)
	if err != nil {
		return "", err
	}
	b.WriteString(fmt.Sprintf("%-24s %-14s %10d %10d\n", "Malware detection", "k-NN", mw, 128))
	b.WriteString("Filesystem encryption    -              16K/256K    16K/128K  (read/write block size)\n")
	return b.String(), nil
}

// malwareCrossover finds the query-batch size at which GPU KNN beats CPU.
// The probe uses a compact online reference set (64 points, 8 counters) —
// the cheapest per-query CPU configuration, i.e. the hardest case for the
// GPU; at the full 16384-point database the GPU wins from batch 1.
func malwareCrossover(rt *core.Runtime) (int, error) {
	w, err := malware.NewWorkload(8, 1)
	if err != nil {
		return 0, err
	}
	refs, labels := w.Dataset(64)
	det, err := malware.NewDetector(rt, refs, labels, malware.K, true)
	if err != nil {
		return 0, err
	}
	pts, err := offload.Sweep(det.Runner(), offload.StandardBatches(), func(i int) []float32 {
		return w.Sample(i%2 == 1)
	})
	if err != nil {
		return 0, err
	}
	return offload.Crossover(pts), nil
}
