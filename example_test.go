package lake_test

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	lake "lakego"
	"lakego/internal/contention"
	"lakego/internal/cuda"
	"lakego/internal/ecryptfs"
	"lakego/internal/linnos"
	"lakego/internal/mllb"
	"lakego/internal/offload"
	"lakego/internal/sched"
	"lakego/internal/trace"
)

// Example walks the full §4.1 workflow from "kernel space": boot the
// runtime, allocate copiable memory in lakeShm, remote CUDA driver calls
// through lakeLib over the Netlink channel to lakeD, launch a device
// kernel, and read the result back zero-copy.
func Example() {
	rt, err := lake.New(lake.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()
	rt.RegisterKernel(lake.VecAddKernel())
	lib := rt.Lib()

	// API-remoted operations (§4.1): every call below serializes a command,
	// crosses the boundary, executes in lakeD against the CUDA API, and
	// returns its result the same way.
	ctx, r := lib.CuCtxCreate("quickstart")
	must(r, "cuCtxCreate")
	mod, r := lib.CuModuleLoad("kernels.cubin")
	must(r, "cuModuleLoad")
	fn, r := lib.CuModuleGetFunction(mod, "vecadd")
	must(r, "cuModuleGetFunction")

	// Copiable memory allocations (§4.1): buffers that will move to/from
	// the accelerator live in lakeShm, shared by both domains.
	const n = 8
	av := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	bv := []float32{10, 20, 30, 40, 50, 60, 70, 80}
	a, err := rt.Region().Alloc(4 * n)
	if err != nil {
		log.Fatal(err)
	}
	b, err := rt.Region().Alloc(4 * n)
	if err != nil {
		log.Fatal(err)
	}
	c, err := rt.Region().Alloc(4 * n)
	if err != nil {
		log.Fatal(err)
	}
	cuda.PutFloat32s(a.Bytes(), av)
	cuda.PutFloat32s(b.Bytes(), bv)

	da, r := lib.CuMemAlloc(4 * n)
	must(r, "cuMemAlloc a")
	db, r := lib.CuMemAlloc(4 * n)
	must(r, "cuMemAlloc b")
	dc, r := lib.CuMemAlloc(4 * n)
	must(r, "cuMemAlloc c")

	must(lib.CuMemcpyHtoDShm(da, a, 4*n), "HtoD a")
	must(lib.CuMemcpyHtoDShm(db, b, 4*n), "HtoD b")
	must(lib.CuLaunchKernel(ctx, fn, []uint64{uint64(da), uint64(db), uint64(dc), n}), "launch vecadd")
	must(lib.CuMemcpyDtoHShm(c, dc, 4*n), "DtoH c")

	cv, err := cuda.Float32s(c.Bytes(), n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("a + b =", cv)

	st := rt.Stats()
	fmt.Printf("remoted %d calls over the %s channel in %v of modeled channel time\n",
		st.RemotedCalls, lake.Netlink, st.ChannelTime)
	fmt.Printf("device ran %d kernel(s); virtual time elapsed %v\n",
		st.KernelLaunches, st.VirtualTime)
	// Output:
	// a + b = [11 22 33 44 55 66 77 88]
	// remoted 11 calls over the Netlink channel in 319µs of modeled channel time
	// device ran 1 kernel(s); virtual time elapsed 345.006µs
}

func must(r lake.Result, what string) {
	if r != lake.Success {
		log.Fatalf("%s: %s", what, r)
	}
}

// Example_policy shows the Fig 3 adaptive policy deciding between CPU and
// GPU based on batch size and (remoted NVML) device utilization.
func Example_policy() {
	rt, err := lake.New(lake.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	pol := rt.NewAdaptivePolicy(lake.AdaptiveConfig{UtilThreshold: 40, BatchThreshold: 8})
	fmt.Println("batch 2:", pol.Decide(2))
	fmt.Println("batch 64:", pol.Decide(64))
	// Output:
	// batch 2: CPU
	// batch 64: GPU
}

// Example_featureRegistry exercises the §5 Table 1 API: asynchronous
// capture with running counters and history fields, batch retrieval and
// truncation.
func Example_featureRegistry() {
	rt, err := lake.New(lake.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	reg, err := lake.NewFeatureStore().CreateRegistry("sda1", "bio_latency_prediction",
		lake.FeatureSchema{
			{Key: "pend_ios", Size: 8, Entries: 1},
			{Key: "io_latency", Size: 8, Entries: 4},
		}, 128)
	if err != nil {
		log.Fatal(err)
	}

	// I/O issue path (Listing 4): bump the pending counter, commit.
	reg.BeginCapture(0)
	reg.CaptureFeatureIncr("pend_ios", 1)
	reg.CommitCapture(1)
	// Completion path (Listing 5): one less pending.
	reg.CaptureFeatureIncr("pend_ios", -1)
	reg.BeginCapture(1)
	reg.CommitCapture(2)

	batch := reg.GetFeatures(lake.NullTS)
	fmt.Println("vectors:", len(batch))
	reg.Truncate(lake.NullTS)
	fmt.Println("after truncate:", reg.Len(), "(most recent kept for history)")
	// Output:
	// vectors: 2
	// after truncate: 1 (most recent kept for history)
}

// Example_contention replays the paper's two contention timelines: Fig 1's
// unmanaged collapse of a GPU-accelerated user application when kernel ML
// workloads arrive, and Fig 13's recovery under the Fig 3 adaptive policy,
// which samples remoted NVML utilization and falls back to the CPU.
func Example_contention() {
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
	// Output:
	// === Fig 1: unmanaged contention ===
	// user hashing throughput (pages/s), kernel classifiers start at 4s and 7s:
	//   0.0s ........................................   0.00e7
	//   1.0s ########################################   2.00e7
	//   2.0s ########################################   2.06e7
	//   3.0s ######################################..   1.94e7
	//   4.0s #######################.................   1.16e7
	//   5.0s #######################.................   1.19e7
	//   6.0s ######################..................   1.13e7
	//   7.0s ############............................   0.64e7
	//   8.0s #############...........................   0.66e7
	//   9.0s ############............................   0.62e7
	//  10.0s ############............................   0.64e7
	// worst-case degradation: 70% (paper: up to 68%)
	//
	// === Fig 13: adaptive contention policy ===
	// H = user hashing, P = kernel I/O latency predictor (normalized):
	//   0.0s  H ....................  P #################### GPU
	//   1.0s  H ....................  P #################### GPU
	//   2.0s  H ....................  P #################### GPU
	//   3.0s  H ....................  P #################### GPU
	//   4.0s  H ....................  P #################### GPU
	//   5.0s  H ....................  P #################### GPU
	//   6.0s  H ....................  P #################### GPU
	//   7.0s  H ....................  P #################### GPU
	//   8.0s  H #...................  P #################### GPU
	//   9.0s  H #...................  P #################### GPU
	//  10.0s  H #...................  P #################### GPU
	//  11.0s  H #...................  P #################### GPU
	//  12.0s  H ####################  P #################### GPU
	//  13.0s  H ####################  P #########........... cpu
	//  14.0s  H ####################  P #########........... cpu
	//  15.0s  H ####################  P #########........... cpu
	//  16.0s  H ####################  P #########........... cpu
	//  17.0s  H ####################  P #########........... cpu
	//  18.0s  H ####################  P #########........... cpu
	//  19.0s  H ####################  P #########........... cpu
	//  20.0s  H ####################  P #########........... cpu
	//  21.0s  H ####################  P #########........... cpu
	//  22.0s  H ....................  P #########........... cpu
	//  23.0s  H ....................  P #################### GPU
	//  24.0s  H ....................  P #################### GPU
	//  25.0s  H ....................  P #################### GPU
	//  26.0s  H ....................  P #################### GPU
	//  27.0s  H ....................  P #################### GPU
	//  28.0s  H ....................  P #################### GPU
	//  29.0s  H ....................  P #################### GPU
	//  30.0s  H ....................  P #################### GPU
	//
	// policy fell back to CPU for 92% of the contended window and reclaimed
	// the GPU 1.0s after the user process exited; user throughput stayed stable: true
}

// bar draws norm (clamped to [0, 1]) as a width-character gauge.
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

// Example_encryption mounts the simulated AES-GCM eCryptfs (§7.7) with each
// cipher engine, writes and reads real encrypted data (verifying integrity),
// and prints the modeled throughput curves that reproduce Fig 14's shape.
func Example_encryption() {
	data := make([]byte, 4<<20)
	rand.New(rand.NewSource(1)).Read(data)

	fmt.Println("write+read 4 MiB through each engine (real AES-GCM, modeled time):")
	for _, e := range ecryptfs.Engines() {
		fs, err := ecryptfs.NewFS(e, nil, 64<<10, "example-passphrase")
		if err != nil {
			log.Fatal(err)
		}
		wT, err := fs.Write("data.bin", data)
		if err != nil {
			log.Fatal(err)
		}
		got, rT, err := fs.Read("data.bin")
		if err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			log.Fatal("round trip corrupted data")
		}
		fmt.Printf("  %-12s write %8v   read %8v\n", e, wT, rT)
	}

	// Authenticated encryption catches tampering with data at rest.
	fs, _ := ecryptfs.NewFS(ecryptfs.EngineLAKE, nil, 64<<10, "example-passphrase")
	fs.Write("tamper.bin", data[:1<<20])
	fs.Tamper("tamper.bin", 3, 17)
	if _, _, err := fs.Read("tamper.bin"); errors.Is(err, ecryptfs.ErrCorrupt) {
		fmt.Println("\ntampered ciphertext detected and rejected (AES-GCM authentication)")
	} else {
		log.Fatal("tampering went undetected")
	}

	m := ecryptfs.DefaultModel()
	fmt.Println("\nread throughput by block size (MB/s), Fig 14's curves:")
	fmt.Printf("%-8s %8s %8s %8s %12s\n", "block", "CPU", "AES-NI", "LAKE", "GPU+AES-NI")
	for _, s := range ecryptfs.Fig14BlockSizes() {
		fmt.Printf("%-8d %8.0f %8.0f %8.0f %12.0f\n", s/1024,
			m.Throughput(ecryptfs.EngineCPU, s, false)/1e6,
			m.Throughput(ecryptfs.EngineAESNI, s, false)/1e6,
			m.Throughput(ecryptfs.EngineLAKE, s, false)/1e6,
			m.Throughput(ecryptfs.EngineGPUAESNI, s, false)/1e6)
	}
	fmt.Println("\n(block column in KiB; LAKE passes AES-NI above 16 KiB and approaches ~840 MB/s)")
	// Output:
	// write+read 4 MiB through each engine (real AES-GCM, modeled time):
	//   CPU          write 30.84047ms   read 29.537352ms
	//   AES-NI       write 7.723885ms   read 6.455785ms
	//   LAKE         write 15.174475ms   read 5.446475ms
	//   GPU+AES-NI   write 12.438094ms   read 4.157614ms
	//
	// tampered ciphertext detected and rejected (AES-GCM authentication)
	//
	// read throughput by block size (MB/s), Fig 14's curves:
	// block         CPU   AES-NI     LAKE   GPU+AES-NI
	// 4             142      447      320          419
	// 8             142      536      464          608
	// 16            142      596      601          787
	// 32            142      631      704          922
	// 64            142      650      770         1009
	// 128           142      660      808         1059
	// 256           142      665      829         1085
	// 512           142      667      839         1099
	// 1024          142      669      845         1106
	// 2048          142      669      847         1110
	// 4096          142      670      849         1112
	//
	// (block column in KiB; LAKE passes AES-NI above 16 KiB and approaches ~840 MB/s)
}

// Example_iolatency runs the §7.1 end-to-end study in miniature: train a
// LinnOS latency classifier on profiled device behaviour, install it behind
// LAKE, replay the mixed trace workload against the three-device NVMe array,
// and compare average read latency across the kernel default, the CPU model
// and LAKE's policy-modulated execution.
func Example_iolatency() {
	rt, err := lake.New(lake.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	// 1. Profile the device and label training data (LinnOS trains
	//    offline from observed latencies).
	fmt.Println("profiling devices and training the latency classifier...")
	reqs := trace.Azure().Rerate(3).Generate(7, 6000)
	samples, threshold := linnos.CollectSamples(7, reqs)
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
	base, err := linnos.Replay(nil, w, linnos.DefaultReplayConfig(linnos.ModeBaseline))
	if err != nil {
		log.Fatal(err)
	}
	cpu, err := linnos.Replay(pred, w, linnos.DefaultReplayConfig(linnos.ModeCPU))
	if err != nil {
		log.Fatal(err)
	}
	lk, err := linnos.Replay(pred, w, linnos.DefaultReplayConfig(linnos.ModeLAKE))
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
	// Output:
	// profiling devices and training the latency classifier...
	//   3867 samples, slow threshold 1.680122ms, training accuracy 91.9%
	//
	// replaying Mixed+ (3 devices, 3000 I/Os each):
	//   baseline (no reroute)  avg read 668.327µs   p95 2.367018ms
	//   LinnOS on CPU          avg read 333.235µs   p95 1.069848ms   reissued 413
	//   LAKE (policy CPU/GPU)  avg read 347.827µs   p95  1.119ms   reissued 421 (GPU batches 115, CPU inferences 5231)
	//
	// ML-driven reissue cut average read latency by 50%
}

// Example_loadbalance runs the §7.3 workload end to end: train MLLB's
// perceptron on the scheduler simulator's labeled migration opportunities,
// plug it in as the kernel's load balancer through LAKE, and compare a
// skewed workload's completion against the CFS-style heuristic — then show
// the Fig 10 batch profitability sweep.
func Example_loadbalance() {
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
	// Output:
	// training MLLB on simulator-labeled migration decisions...
	//   training accuracy 86.7%
	//
	// skewed 256-task workload, 16 cores, 2 NUMA nodes:
	//   CFS heuristic      makespan    308ms  avg turnaround 174.414062ms  migrations 0
	//   MLLB (learned)     makespan    256ms  avg turnaround 168.609375ms  migrations 63
	//
	// Fig 10 profitability sweep (classification time per batch):
	//   batch    1: CPU   2.28µs   LAKE     70µs   LAKE sync 106.003µs
	//   batch   64: CPU  19.92µs   LAKE 70.062µs   LAKE sync 106.254µs
	//   batch  256: CPU  73.68µs   LAKE  70.25µs   LAKE sync 107.018µs
	//   batch 1024: CPU 288.72µs   LAKE 71.002µs   LAKE sync 110.074µs
	// crossover: GPU profitable beyond 256 tasks (Table 3: 256)
}

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
