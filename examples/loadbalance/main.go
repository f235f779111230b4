// loadbalance runs the §7.3 workload end to end: train MLLB's perceptron on
// the scheduler simulator's labeled migration opportunities, plug it in as
// the kernel's load balancer through LAKE, and compare a skewed workload's
// completion against the CFS-style heuristic — then show the Fig 10 batch
// profitability sweep.
package main

import (
	"fmt"
	"log"
	"time"

	lake "lakego"
	"lakego/internal/mllb"
	"lakego/internal/offload"
	"lakego/internal/sched"
)

// runSkewed runs a deliberately imbalanced workload under the given
// balancer and returns the stats.
func runSkewed(b sched.Balancer, seed int64) sched.Stats {
	cfg := sched.DefaultConfig()
	cfg.Seed = seed
	sim, err := sched.NewSim(cfg, b)
	if err != nil {
		log.Fatal(err)
	}
	sim.SpawnRandom(256, 2*time.Millisecond, 30*time.Millisecond)
	return sim.Run(time.Minute)
}

func main() {
	rt, err := lake.New(lake.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	fmt.Println("training MLLB on simulator-labeled migration decisions...")
	net, acc, err := mllb.TrainFromSim(7, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  training accuracy %.1f%%\n\n", acc*100)

	bal, err := mllb.New(rt, net)
	if err != nil {
		log.Fatal(err)
	}

	heuristic := runSkewed(sched.Heuristic{}, 21)
	learned := runSkewed(bal, 21)
	fmt.Println("skewed 256-task workload, 16 cores, 2 NUMA nodes:")
	fmt.Printf("  %-18s makespan %8v  avg turnaround %8v  migrations %d\n",
		"CFS heuristic", heuristic.Makespan, heuristic.AvgTurnTime, heuristic.Migrations)
	fmt.Printf("  %-18s makespan %8v  avg turnaround %8v  migrations %d\n",
		"MLLB (learned)", learned.Makespan, learned.AvgTurnTime, learned.Migrations)

	fmt.Println("\nFig 10 profitability sweep (classification time per batch):")
	pts, err := mllb.Sweep(bal, []int{1, 64, 256, 1024})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range pts {
		fmt.Printf("  batch %4d: CPU %8v   LAKE %8v   LAKE sync %8v\n",
			p.Batch, p.CPU, p.LAKE, p.LAKESync)
	}
	fmt.Printf("crossover: GPU profitable beyond %d tasks (Table 3: 256)\n",
		offload.Crossover(pts))
}
