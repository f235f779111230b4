// contention replays the paper's two contention timelines: Fig 1's
// unmanaged collapse of a GPU-accelerated user application when kernel ML
// workloads arrive, and Fig 13's recovery under the Fig 3 adaptive policy,
// which samples remoted NVML utilization and falls back to the CPU.
package main

import (
	"fmt"
	"log"
	"strings"

	lake "lakego"
	"lakego/internal/contention"
)

func bar(norm float64, width int) string {
	n := int(norm * float64(width))
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}

func main() {
	rt, err := lake.New(lake.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	fmt.Println("=== Fig 1: unmanaged contention ===")
	fmt.Println("user hashing throughput (pages/s), kernel classifiers start at 4s and 7s:")
	pts := contention.Fig1(rt)
	for i, p := range pts {
		if i%4 != 0 {
			continue
		}
		fmt.Printf("%5.1fs %s %6.2fe7\n", p.T.Seconds(), bar(p.PagesPerSec/2e7, 40), p.PagesPerSec/1e7)
	}
	fmt.Printf("worst-case degradation: %.0f%% (paper: up to 68%%)\n\n",
		contention.Fig1Degradation(pts)*100)

	rt2, err := lake.New(lake.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer rt2.Close()

	fmt.Println("=== Fig 13: adaptive contention policy ===")
	fmt.Println("H = user hashing, P = kernel I/O latency predictor (normalized):")
	pts13 := contention.Fig13(rt2)
	for i, p := range pts13 {
		if i%4 != 0 {
			continue
		}
		target := "cpu"
		if p.OnGPU {
			target = "GPU"
		}
		fmt.Printf("%5.1fs  H %s  P %s %s\n",
			p.T.Seconds(), bar(p.HashingNorm, 20), bar(p.PredictorNorm, 20), target)
	}
	s := contention.Summarize(pts13)
	fmt.Printf("\npolicy fell back to CPU for %.0f%% of the contended window and reclaimed\n"+
		"the GPU %.1fs after the user process exited; user throughput stayed stable: %v\n",
		s.CPUFraction*100, s.ReclaimedBy.Seconds(), s.HashingStable)
}
