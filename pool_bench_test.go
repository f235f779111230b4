// BenchmarkPoolScaling quantifies the multi-GPU device pool
// (internal/gpupool) under contention: a tenant pins device 0 at 100%
// utilization while 64 concurrent LinnOS clients stream batched inference
// through the Fig 3 adaptive policy. On a single device the aggregate NVML
// query reads 100% and every flush falls back to the CPU; on a 4-device
// pool the aggregate drops to 25%, the policy keeps the GPU path, and
// contention-aware per-flush placement steers every launch onto the idle
// devices — the throughput ratio is the pool's headline speedup.
package lake_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	lake "lakego"
	"lakego/internal/batcher"
	"lakego/internal/core"
	"lakego/internal/gpupool"
	"lakego/internal/kml"
	"lakego/internal/linnos"
	"lakego/internal/mllb"
	"lakego/internal/nn"
	"lakego/internal/policy"
)

// poolBenchConfig boots a contention-aware pool of n devices with a fixed
// placement seed so runs are reproducible.
func poolBenchConfig(devices int) core.Config {
	cfg := benchConfig(false)
	cfg.NumDevices = devices
	cfg.PoolPolicy = gpupool.ContentionAware
	cfg.PoolSeed = 42
	return cfg
}

// runPoolScalingLinnOS drives the batched LinnOS workload of
// batching_bench_test.go on a device pool whose device 0 is held at 100%
// utilization by a tenant for the whole run, with the Fig 3 adaptive policy
// deciding CPU vs GPU per flush. Unlike runBatchedLinnOSCfg it does not
// assert the MaxWait flush bound: CPU-fallback flushes occupy the caller
// long enough that later submissions legitimately queue past the deadline.
func runPoolScalingLinnOS(tb testing.TB, clients, perClient, devices int) batchBenchRun {
	tb.Helper()
	rt, err := core.New(poolBenchConfig(devices))
	if err != nil {
		tb.Fatal(err)
	}
	defer rt.Close()
	// The tenant workload: device 0 is fully occupied for longer than the
	// benchmark's virtual duration, so its NVML utilization reads 100 at
	// every sampling window the run touches.
	rt.Pool().Device(0).OccupySpan("tenant", 0, 10*time.Second)

	pred, err := linnos.NewPredictor(rt, linnos.Base, nn.New(3, linnos.Base.Sizes()...))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := batcher.DefaultConfig()
	cfg.MaxBatch = clients
	cfg.MaxWait = 200 * time.Microsecond
	// Linger is real time: wide enough that batches coalesce fully even
	// when the race detector slows submitters (virtual MaxWait still bounds
	// modeled queueing, and full batches wake the leader immediately).
	cfg.Linger = 2 * time.Millisecond
	cfg.ClientDepth = 4
	cfg.Policy = rt.NewAdaptivePolicy(policy.DefaultAdaptiveConfig()).Decide
	b := rt.NewBatcher(cfg)
	if err := pred.Runner().EnableBatching(b); err != nil {
		tb.Fatal(err)
	}
	run := batchBenchRun{
		lats:  make([]time.Duration, clients*perClient),
		preds: make([]bool, clients*perClient),
	}
	start := rt.Clock().Now()
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := b.Client(fmt.Sprintf("queue-%d", ci))
			for r := 0; r < perClient; r++ {
				p, err := pred.SubmitBatched(c, [][]float32{linnosFeature(ci, r)})
				if err != nil {
					errCh <- err
					return
				}
				slow, err := linnos.WaitSlow(p)
				if err != nil {
					errCh <- err
					return
				}
				run.lats[ci*perClient+r] = p.Latency()
				run.preds[ci*perClient+r] = slow[0]
			}
		}(ci)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		tb.Fatal(err)
	}
	run.elapsed = rt.Clock().Now() - start
	return run
}

func BenchmarkPoolScaling(b *testing.B) {
	const clients = 64
	var single, pooled batchBenchRun
	for i := 0; i < b.N; i++ {
		single = runPoolScalingLinnOS(b, clients, batchBenchPerClient, 1)
		pooled = runPoolScalingLinnOS(b, clients, batchBenchPerClient, 4)
	}
	for i := range pooled.preds {
		if pooled.preds[i] != single.preds[i] {
			b.Fatalf("request %d: pooled prediction differs from single-device", i)
		}
	}
	b.ReportMetric(single.throughput(), "single_dev_req_per_s")
	b.ReportMetric(pooled.throughput(), "pool4_req_per_s")
	b.ReportMetric(pooled.throughput()/single.throughput(), "pool_speedup")
	b.ReportMetric(float64(pooled.p99().Microseconds()), "pool4_p99_us")
	b.ReportMetric(float64(single.p99().Microseconds()), "single_dev_p99_us")
}

// TestPoolScalingSpeedup pins the tentpole acceptance number: with device 0
// contended, a 4-device contention-aware pool must deliver at least 3x the
// aggregate throughput of the single-device configuration at 64 concurrent
// batched LinnOS clients, with bit-identical predictions.
func TestPoolScalingSpeedup(t *testing.T) {
	const clients = 64
	single := runPoolScalingLinnOS(t, clients, batchBenchPerClient, 1)
	pooled := runPoolScalingLinnOS(t, clients, batchBenchPerClient, 4)
	for i := range pooled.preds {
		if pooled.preds[i] != single.preds[i] {
			t.Fatalf("request %d: pooled prediction differs from single-device", i)
		}
	}
	speedup := pooled.throughput() / single.throughput()
	t.Logf("single-device %.0f req/s, 4-device pool %.0f req/s, speedup %.2fx, p99 %v vs %v",
		single.throughput(), pooled.throughput(), speedup, single.p99(), pooled.p99())
	if speedup < 3 {
		t.Fatalf("pool speedup %.2fx < 3x acceptance threshold", speedup)
	}
}

// newPoolChaosStack is newChaosStack on a 4-device contention-aware pool:
// same workloads and predictor seeds, but every context placement and
// per-flush launch routes through the seeded pool.
func newPoolChaosStack(t *testing.T, mix *lake.FaultMix) *chaosStack {
	t.Helper()
	cfg := lake.DefaultConfig()
	cfg.NumDevices = 4
	cfg.PoolPolicy = lake.PoolContentionAware
	cfg.PoolSeed = 7
	cfg.Faults = mix
	rt, err := lake.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	lin, err := linnos.NewPredictor(rt, linnos.Base, nn.New(11, linnos.Base.Sizes()...))
	if err != nil {
		t.Fatal(err)
	}
	km, err := kml.New(rt, nn.New(12, kml.Sizes()...))
	if err != nil {
		t.Fatal(err)
	}
	ml, err := mllb.New(rt, nn.New(13, mllb.Sizes()...))
	if err != nil {
		t.Fatal(err)
	}
	return &chaosStack{rt: rt, lin: lin, km: km, ml: ml}
}

// TestPoolChaosDeterministic pins the multi-device determinism contract:
// two runs of the full chaos workload suite on identically configured
// 4-device pools — same fault mix seed, same pool seed — are bit-identical
// in predictions, per-call virtual latencies, and runtime counters, because
// placement draws only from the pool's seeded PRNG and the virtual clock.
func TestPoolChaosDeterministic(t *testing.T) {
	rounds, batch := chaosRounds(), 8
	mix := func() *lake.FaultMix {
		return &lake.FaultMix{
			Drop: 0.05, Corrupt: 0.01, Duplicate: 0.02,
			Delay: 0.1, DelayMin: 20 * time.Microsecond, DelayMax: 60 * time.Microsecond,
			Crash: 0.005, Seed: 107,
		}
	}

	first := newPoolChaosStack(t, mix())
	firstDigest, firstLats := runChaosWorkloads(t, first, rounds, batch)
	firstStats := first.rt.Stats()

	second := newPoolChaosStack(t, mix())
	secondDigest, secondLats := runChaosWorkloads(t, second, rounds, batch)
	secondStats := second.rt.Stats()

	if len(firstDigest) != len(secondDigest) {
		t.Fatalf("digest lengths differ: %d vs %d", len(firstDigest), len(secondDigest))
	}
	for i := range firstDigest {
		if firstDigest[i] != secondDigest[i] {
			t.Fatalf("prediction %d differs across identical runs: %d vs %d", i, firstDigest[i], secondDigest[i])
		}
	}
	for i := range firstLats {
		if firstLats[i] != secondLats[i] {
			t.Fatalf("call %d latency differs across identical runs: %v vs %v", i, firstLats[i], secondLats[i])
		}
	}
	if firstStats != secondStats {
		t.Fatalf("runtime stats diverged across identical runs:\nfirst  %+v\nsecond %+v", firstStats, secondStats)
	}
	// Per-device accounting must agree too: identical placement decisions
	// land identical launch/copy counts on every ordinal.
	fa, sa := first.rt.Pool().Accounting(), second.rt.Pool().Accounting()
	for i := range fa {
		if fa[i] != sa[i] {
			t.Fatalf("device %d accounting diverged: %+v vs %+v", i, fa[i], sa[i])
		}
	}
	t.Logf("deterministic over %d predictions, %d calls: stats %+v", len(firstDigest), len(firstLats), firstStats)
}
