package kleio

import (
	"testing"
	"time"

	"lakego/internal/core"
)

func boot(t *testing.T) (*core.Runtime, *Classifier) {
	t.Helper()
	rt, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	c, err := New(rt, 5)
	if err != nil {
		t.Fatal(err)
	}
	return rt, c
}

func mkPages(n int) []PageHistory {
	pages := make([]PageHistory, n)
	for i := range pages {
		for t := 0; t < HistoryLen; t++ {
			pages[i][t] = float32((i*7 + t*3) % 50)
		}
	}
	return pages
}

func TestClassifyLAKEMatchesCPU(t *testing.T) {
	_, c := boot(t)
	pages := mkPages(40)
	lakeHot, lakeT, err := c.ClassifyLAKE(pages)
	if err != nil {
		t.Fatal(err)
	}
	cpuHot, cpuT := c.ClassifyCPU(pages)
	if len(lakeHot) != 40 || len(cpuHot) != 40 {
		t.Fatal("wrong result lengths")
	}
	for i := range lakeHot {
		if lakeHot[i] != cpuHot[i] {
			t.Fatalf("page %d: LAKE=%v CPU=%v", i, lakeHot[i], cpuHot[i])
		}
	}
	if lakeT <= 0 || cpuT <= 0 {
		t.Fatalf("times: lake=%v cpu=%v", lakeT, cpuT)
	}
}

// Fig 9 shape: inference time in the ~100-300ms band across 20-1160 pages,
// increasing with batch size; GPU much faster than CPU at scale (§7.2).
func TestFig9TimingShape(t *testing.T) {
	_, c := boot(t)
	var prev time.Duration
	for _, n := range []int{20, 200, 560, 1160} {
		_, d, err := c.ClassifyLAKE(mkPages(n))
		if err != nil {
			t.Fatal(err)
		}
		if d < 90*time.Millisecond || d > 400*time.Millisecond {
			t.Fatalf("ClassifyLAKE(%d) = %v, want in Fig 9's ~100-300ms band", n, d)
		}
		if d <= prev {
			t.Fatalf("time not increasing with batch: %v after %v", d, prev)
		}
		prev = d
	}
	// GPU beats CPU by a wide margin at 1160 pages.
	_, gpuT, _ := c.ClassifyLAKE(mkPages(1160))
	_, cpuT := c.ClassifyCPU(mkPages(1160))
	if cpuT < 5*gpuT {
		t.Fatalf("GPU speedup only %.1fx at 1160 pages", float64(cpuT)/float64(gpuT))
	}
}

func TestClassifyLAKEValidation(t *testing.T) {
	_, c := boot(t)
	if _, _, err := c.ClassifyLAKE(make([]PageHistory, MaxPages+1)); err == nil {
		t.Fatal("oversized batch accepted")
	}
	hot, d, err := c.ClassifyLAKE(nil)
	if err != nil || hot != nil || d != 0 {
		t.Fatal("empty batch should be a no-op")
	}
}

func TestHighLevelHandlerRejectsBadArgs(t *testing.T) {
	rt, _ := boot(t)
	if _, _, r := rt.Lib().CallHighLevel(APIName, []uint64{0}, nil); r == 0 {
		t.Fatal("short args accepted")
	}
	if _, _, r := rt.Lib().CallHighLevel(APIName, []uint64{0, 0, 1 << 40}, nil); r == 0 {
		t.Fatal("huge page count accepted")
	}
}

func TestAccessPatternClasses(t *testing.T) {
	a := NewAccessPattern(3, 9)
	counts := a.NextInterval()
	if len(counts) != 9 {
		t.Fatalf("counts = %d pages", len(counts))
	}
	// Hot pages (p%3==0) always exceed cold pages (p%3==2).
	for i := 0; i < 9; i += 3 {
		if counts[i] < 30 {
			t.Fatalf("hot page %d count %v", i, counts[i])
		}
	}
	for i := 2; i < 9; i += 3 {
		if counts[i] > 10 {
			t.Fatalf("cold page %d count %v", i, counts[i])
		}
	}
}

func TestHistorySchedulerSeparatesHotCold(t *testing.T) {
	a := NewAccessPattern(7, 30)
	hist := make([]PageHistory, 30)
	for t := 0; t < HistoryLen; t++ {
		counts := a.NextInterval()
		for p := range hist {
			copy(hist[p][:HistoryLen-1], hist[p][1:])
			hist[p][HistoryLen-1] = counts[p]
		}
	}
	pred := HistoryScheduler(hist, 15)
	truth := a.HotNext()
	correct := 0
	for i := range pred {
		if pred[i] == truth[i] {
			correct++
		}
	}
	// History heuristics handle persistent pages but miss phase changes;
	// they must still clearly beat chance here.
	if acc := float64(correct) / float64(len(pred)); acc < 0.6 {
		t.Fatalf("history scheduler accuracy = %.2f, want > 0.6", acc)
	}
}
