// fleet demonstrates the sharded multi-daemon deployment: several
// independent lakeD shards — each a full runtime with its own supervisor,
// batcher, device pool and virtual clock — behind the client-side router.
// Tenants are placed on shards by a pluggable policy, admission control
// enforces per-tenant and fair-share quotas, and a live drain retires a
// shard mid-storm without losing or re-executing a single call.
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
	shards    = 4
	tenants   = 12
	perTenant = 40
)

func feature(ti, r int) []float32 {
	return linnos.FeatureVector((ti*13+r*5)%89, []time.Duration{
		time.Duration((ti+r)%9) * 250 * time.Microsecond,
	})
}

func main() {
	cfg := lake.DefaultConfig()
	cfg.NumShards = shards
	cfg.RouterPolicy = lake.PoolRoundRobin // or consistent-hash, least-outstanding, contention-aware
	cfg.RouterSeed = 42
	f, err := lake.NewFleet(lake.FleetConfig{Runtime: cfg, Batcher: lake.DefaultBatcherConfig()})
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	// One model, registered on every shard: the LinnOS latency classifier.
	mc := linnos.Model(linnos.Base, nn.New(3, linnos.Base.Sizes()...))
	mc.Name = "linnos"
	if err := f.RegisterModel(mc); err != nil {
		log.Fatal(err)
	}

	// A weighted tenant with a tight outstanding-request cap: the router's
	// admission control backpressures it independently of everyone else.
	f.Tenant("tenant-0", lake.FleetTenantConfig{Weight: 2, MaxOutstanding: 8})

	var wg sync.WaitGroup
	drained := make(chan *lake.FleetMigration, 1)
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			c := f.Client(fmt.Sprintf("tenant-%d", ti))
			for r := 0; r < perTenant; r++ {
				if _, err := c.Infer("linnos", [][]float32{feature(ti, r)}); err != nil {
					log.Fatalf("tenant %d: %v", ti, err)
				}
			}
		}(ti)
	}

	// Mid-storm maintenance: drain shard 0. The router stops placing new
	// tenants there, in-flight calls finish on shard 0, and the drained
	// shard's tenants re-route — zero lost, zero re-executed.
	go func() {
		time.Sleep(2 * time.Millisecond)
		m, err := f.Drain(0)
		if err != nil {
			log.Fatal(err)
		}
		drained <- m
	}()
	wg.Wait()
	m := <-drained

	fmt.Printf("fleet of %d shards served %d tenants (%s routing)\n",
		shards, tenants, f.Policy())
	st := f.Stats()
	fmt.Printf("router: %d placements, %d reroutes, %d migrations, %d admission rejects\n",
		st.Placements, st.Reroutes, st.Migrations, st.Rejects)
	fmt.Printf("drain:  shard %d retired, %d tenants re-homed\n", m.Src, m.Tenants)
	for _, sh := range f.Shards() {
		bs := sh.Batcher().Stats()
		fmt.Printf("shard %d [%s]: %d requests, %d flushes (avg batch %.1f), redelivered %d, v=%v\n",
			sh.Ordinal(), sh.State(), bs.Requests, bs.Flushes, bs.AvgBatch(),
			sh.Runtime().Daemon().Redelivered(), sh.Clock().Now())
	}
	fmt.Printf("fleet virtual elapsed (critical path over per-shard clocks): %v\n",
		f.VirtualElapsed())
}
