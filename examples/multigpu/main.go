// multigpu demonstrates the device pool (internal/gpupool): a 4-GPU runtime
// with contention-aware placement, a tenant workload pinning device 0, and
// 32 batched LinnOS clients whose flushes are steered onto the idle devices.
// The same workload on a single contended device falls back to the CPU per
// the Fig 3 policy; the printed per-device accounting and the throughput
// ratio show what the pool buys.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	lake "lakego"
	"lakego/internal/linnos"
	"lakego/internal/nn"
)

const (
	clients   = 32
	perClient = 32
)

// run drives the batched LinnOS workload on a pool of n devices whose
// device 0 is occupied by a tenant, returning requests per virtual second.
func run(devices int) (float64, *lake.Runtime, error) {
	cfg := lake.DefaultConfig()
	cfg.NumDevices = devices
	cfg.PoolPolicy = lake.PoolContentionAware
	cfg.PoolSeed = 42
	rt, err := lake.New(cfg)
	if err != nil {
		return 0, nil, err
	}
	rt.Pool().Device(0).OccupySpan("tenant", 0, 10*time.Second)

	pred, err := linnos.NewPredictor(rt, linnos.Base, nn.New(3, linnos.Base.Sizes()...))
	if err != nil {
		return 0, nil, err
	}
	bcfg := lake.DefaultBatcherConfig()
	bcfg.MaxBatch = clients
	bcfg.MaxWait = 200 * time.Microsecond
	// Real-time linger wide enough for full coalescing regardless of
	// scheduler jitter, so the printed virtual metrics are reproducible.
	bcfg.Linger = 2 * time.Millisecond
	bcfg.Policy = rt.NewAdaptivePolicy(lake.DefaultAdaptiveConfig()).Decide
	b := rt.NewBatcher(bcfg)
	if err := pred.Runner().EnableBatching(b); err != nil {
		return 0, nil, err
	}

	start := rt.Clock().Now()
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := b.Client(fmt.Sprintf("queue-%d", ci))
			for r := 0; r < perClient; r++ {
				x := linnos.FeatureVector((ci*31+r*7)%97, []time.Duration{
					time.Duration((ci+r)%11) * 200 * time.Microsecond,
				})
				p, err := pred.SubmitBatched(c, [][]float32{x})
				if err != nil {
					log.Fatal(err)
				}
				if _, err := linnos.WaitSlow(p); err != nil {
					log.Fatal(err)
				}
			}
		}(ci)
	}
	wg.Wait()
	elapsed := rt.Clock().Now() - start
	return float64(clients*perClient) / elapsed.Seconds(), rt, nil
}

func main() {
	fmt.Println("=== multi-GPU device pool under tenant contention ===")
	fmt.Printf("%d batched LinnOS clients, device 0 held at 100%% by a tenant\n\n", clients)

	single, rt1, err := run(1)
	if err != nil {
		log.Fatal(err)
	}
	defer rt1.Close()
	fmt.Printf("1 device : %10.0f req/s (aggregate NVML util 100%% -> CPU fallback)\n", single)

	pooled, rt4, err := run(4)
	if err != nil {
		log.Fatal(err)
	}
	defer rt4.Close()
	fmt.Printf("4 devices: %10.0f req/s (aggregate util 25%% -> GPU, flushes steered to idle devices)\n\n", pooled)

	fmt.Println("per-device accounting (4-device pool):")
	for _, acc := range rt4.Pool().Accounting() {
		tag := ""
		if acc.Ordinal == 0 {
			tag = "  <- tenant-contended, avoided by placement"
		}
		fmt.Printf("  gpu%d: %4d launches, %4d copies, %8d bytes%s\n",
			acc.Ordinal, acc.Launches, acc.Copies, acc.CopyBytes, tag)
	}
	fmt.Printf("\npool speedup: %.1fx\n", pooled/single)
}
