// iolatency runs the §7.1 end-to-end study in miniature: train a LinnOS
// latency classifier on profiled device behaviour, install it behind LAKE,
// replay the mixed trace workload against the three-device NVMe array, and
// compare average read latency across the kernel default, the CPU model and
// LAKE's policy-modulated execution.
package main

import (
	"fmt"
	"log"

	lake "lakego"
	"lakego/internal/linnos"
	"lakego/internal/storage"
	"lakego/internal/trace"
)

func main() {
	rt, err := lake.New(lake.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	// 1. Profile the device and label training data (LinnOS trains
	//    offline from observed latencies).
	fmt.Println("profiling devices and training the latency classifier...")
	reqs := trace.Azure().Rerate(3).Generate(7, 6000)
	samples, threshold := linnos.CollectSamples(storage.DefaultConfig("profiling", 7), reqs)
	net, acc, err := linnos.Train(linnos.Base, 7, samples, 3, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d samples, slow threshold %v, training accuracy %.1f%%\n",
		len(samples), threshold, acc*100)

	// 2. Install the model behind LAKE.
	pred, err := linnos.NewPredictor(rt, linnos.Base, net)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Replay the stressed mixed workload in all three configurations.
	w := linnos.MixedWorkload("Mixed+", 3000, 21, 3)
	fmt.Printf("\nreplaying %s (3 devices, %d I/Os each):\n", w.Name, 3000)
	base, err := linnos.Replay(rt, nil, w, linnos.DefaultReplayConfig(linnos.ModeBaseline))
	if err != nil {
		log.Fatal(err)
	}
	cpu, err := linnos.Replay(rt, pred, w, linnos.DefaultReplayConfig(linnos.ModeCPU))
	if err != nil {
		log.Fatal(err)
	}
	lk, err := linnos.Replay(rt, pred, w, linnos.DefaultReplayConfig(linnos.ModeLAKE))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("  %-22s avg read %8v   p95 %8v\n", "baseline (no reroute)", base.AvgRead, base.P95Read)
	fmt.Printf("  %-22s avg read %8v   p95 %8v   reissued %d\n", "LinnOS on CPU", cpu.AvgRead, cpu.P95Read, cpu.Reissued)
	fmt.Printf("  %-22s avg read %8v   p95 %8v   reissued %d (GPU batches %d, CPU inferences %d)\n",
		"LAKE (policy CPU/GPU)", lk.AvgRead, lk.P95Read, lk.Reissued, lk.GPUBatches, lk.CPUInferences)
	if cpu.AvgRead < base.AvgRead {
		fmt.Printf("\nML-driven reissue cut average read latency by %.0f%%\n",
			(1-float64(cpu.AvgRead)/float64(base.AvgRead))*100)
	}
}
