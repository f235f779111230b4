// Fleet scaling and shard-kill chaos: the sharded multi-daemon fleet must
// scale LinnOS inference throughput near-linearly in shards — each shard
// is an independent lakeD process with its own virtual timeline, so the
// fleet's elapsed time is the slowest shard's (the critical path) — and a
// shard killed mid-storm must lose nothing: queued work completes on the
// CPU fallback, tenants re-route, and the flight recorder can still
// reconstruct every surviving-shard call.
package lake_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	lake "lakego"
	"lakego/internal/flightrec"
	"lakego/internal/linnos"
	"lakego/internal/nn"
)

// fleetLinnOSModel builds the LinnOS Base network as a fleet-registerable
// batcher model from the descriptor every other execution path uses, so
// fleet predictions are bit-identical to them.
func fleetLinnOSModel() (lake.BatcherModel, *nn.Network) {
	net := nn.New(3, linnos.Base.Sizes()...)
	mc := linnos.Model(linnos.Base, net)
	mc.Name = "linnos_fleet"
	return mc, net
}

func fleetBenchConfig(shards int) lake.FleetConfig {
	return fleetBenchConfigOn(shards, lake.Netlink)
}

func fleetBenchConfigOn(shards int, ch lake.ChannelKind) lake.FleetConfig {
	rcfg := lake.DefaultConfig()
	rcfg.Channel = ch
	rcfg.NumShards = shards
	rcfg.RouterPolicy = lake.PoolRoundRobin // deterministic balanced storm
	rcfg.RouterSeed = 42
	bcfg := lake.DefaultBatcherConfig()
	bcfg.MaxBatch = 32
	bcfg.MaxWait = 200 * time.Microsecond
	bcfg.Linger = 200 * time.Microsecond
	bcfg.ClientDepth = fleetPipeline
	return lake.FleetConfig{Runtime: rcfg, Batcher: bcfg}
}

// fleetPipeline is each tenant's submission-window depth. The storm is
// open-loop: like a LinnOS block-device queue under a burst, a tenant
// submits its whole request train before collecting, so per-shard queues
// never run dry and batch formation stays at MaxBatch even when sharding
// divides the tenant population — otherwise each deadline flush charges up
// to MaxWait of virtual idle time and the critical-path shard pays it.
const fleetPipeline = 64

// runFleetLinnOS drives a `clients`-tenant storm through a fleet of
// `shards` shards and reports elapsed critical-path virtual time, per-
// request latencies, and per-request predictions.
func runFleetLinnOS(tb testing.TB, shards, clients, perClient int) batchBenchRun {
	return runFleetLinnOSOn(tb, shards, clients, perClient, lake.Netlink)
}

// runFleetLinnOSOn is runFleetLinnOS with every shard on an explicit command
// channel.
func runFleetLinnOSOn(tb testing.TB, shards, clients, perClient int, ch lake.ChannelKind) batchBenchRun {
	tb.Helper()
	f, err := lake.NewFleet(fleetBenchConfigOn(shards, ch))
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	mc, _ := fleetLinnOSModel()
	if err := f.RegisterModel(mc); err != nil {
		tb.Fatal(err)
	}
	// Elapsed time is measured per shard from the post-boot mark, then
	// maximized: the fleet is done when its slowest shard is.
	starts := make([]time.Duration, len(f.Shards()))
	for i, s := range f.Shards() {
		starts[i] = s.Clock().Now()
	}
	run := batchBenchRun{
		lats:  make([]time.Duration, clients*perClient),
		preds: make([]bool, clients*perClient),
	}
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := f.Client(fmt.Sprintf("tenant-%d", ci))
			type inflight struct {
				p *lake.FleetPending
				r int
			}
			var window []inflight
			collect := func(w inflight) error {
				out, err := w.p.Wait()
				if err != nil {
					return err
				}
				run.lats[ci*perClient+w.r] = w.p.Latency()
				run.preds[ci*perClient+w.r] = out[0][1] > out[0][0]
				return nil
			}
			for r := 0; r < perClient; r++ {
				p, err := c.Submit("linnos_fleet", [][]float32{linnosFeature(ci, r)})
				if err != nil {
					errCh <- err
					return
				}
				window = append(window, inflight{p, r})
				if len(window) == fleetPipeline {
					if err := collect(window[0]); err != nil {
						errCh <- err
						return
					}
					window = window[1:]
				}
			}
			for _, w := range window {
				if err := collect(w); err != nil {
					errCh <- err
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		tb.Fatal(err)
	}
	for i, s := range f.Shards() {
		if d := s.Clock().Now() - starts[i]; d > run.elapsed {
			run.elapsed = d
		}
	}
	return run
}

// BenchmarkFleetScaling is the headline: a 256-client LinnOS storm against
// 1, 2 and 4 shards. Throughput is requests over critical-path virtual
// time; per-request predictions must be bit-identical at every shard
// count.
func BenchmarkFleetScaling(b *testing.B) {
	const clients, perClient = 256, 64
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var run, base batchBenchRun
			for i := 0; i < b.N; i++ {
				base = runFleetLinnOS(b, 1, clients, perClient)
				run = runFleetLinnOS(b, shards, clients, perClient)
			}
			for i := range run.preds {
				if run.preds[i] != base.preds[i] {
					b.Fatalf("request %d: prediction differs between 1 and %d shards", i, shards)
				}
			}
			b.ReportMetric(run.throughput(), "req_per_s")
			b.ReportMetric(run.throughput()/base.throughput(), "speedup")
			b.ReportMetric(float64(run.p99().Nanoseconds()), "p99_vns")
		})
	}
}

// BenchmarkFleetScalingRing is the fleet storm with every shard on the
// descriptor-ring transport: a 256-client LinnOS storm at 4 shards against
// its own 1-shard ring baseline. The ring's cheaper per-call boundary
// crossings raise the absolute throughput ceiling over BenchmarkFleetScaling
// while preserving bit-identical predictions.
func BenchmarkFleetScalingRing(b *testing.B) {
	const clients, perClient, shards = 256, 64, 4
	var run, base batchBenchRun
	for i := 0; i < b.N; i++ {
		base = runFleetLinnOSOn(b, 1, clients, perClient, lake.Ring)
		run = runFleetLinnOSOn(b, shards, clients, perClient, lake.Ring)
	}
	for i := range run.preds {
		if run.preds[i] != base.preds[i] {
			b.Fatalf("request %d: prediction differs between 1 and %d ring shards", i, shards)
		}
	}
	b.ReportMetric(run.throughput(), "req_per_s")
	b.ReportMetric(run.throughput()/base.throughput(), "speedup")
	b.ReportMetric(float64(run.p99().Nanoseconds()), "p99_vns")
}

// TestFleetScalingSpeedup gates the headline claim: >= 3x throughput at 4
// shards over 1 under the 256-client storm (mirrors
// TestPoolScalingSpeedup).
func TestFleetScalingSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("storm benchmark in -short mode")
	}
	const clients, perClient = 256, 64
	one := runFleetLinnOS(t, 1, clients, perClient)
	four := runFleetLinnOS(t, 4, clients, perClient)
	for i := range four.preds {
		if four.preds[i] != one.preds[i] {
			t.Fatalf("request %d: prediction differs between 1 and 4 shards", i)
		}
	}
	speedup := four.throughput() / one.throughput()
	t.Logf("1 shard: %.0f req/s (elapsed %v)  4 shards: %.0f req/s (elapsed %v)  speedup %.2fx",
		one.throughput(), one.elapsed, four.throughput(), four.elapsed, speedup)
	if speedup < 3 {
		t.Fatalf("4-shard speedup %.2fx, want >= 3x", speedup)
	}
}

// TestChaosFleetShardKill kills one shard in the middle of a 64-tenant
// storm. The contract: zero lost calls (every Wait succeeds with the
// reference prediction), zero re-executed calls (no shard answers a
// redelivery), and the flight recorder reconstructs every surviving-shard
// call end to end.
func TestChaosFleetShardKill(t *testing.T) {
	runChaosFleetShardKill(t, lake.Netlink)
}

// TestChaosFleetShardKillRing is the same kill storm with every shard on the
// descriptor-ring transport: the victim's in-flight calls sit in ring slots
// when the kill lands, and the storm must still end with zero lost and zero
// re-executed calls.
func TestChaosFleetShardKillRing(t *testing.T) {
	runChaosFleetShardKill(t, lake.Ring)
}

func runChaosFleetShardKill(t *testing.T, ch lake.ChannelKind) {
	const clients, perClient, victim = 64, 16, 2
	cfg := fleetBenchConfig(4)
	cfg.Runtime.Channel = ch
	cfg.Runtime.Faults = &lake.FaultMix{Seed: 21} // plane attached; the kill is manual
	f, err := lake.NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	mc, net := fleetLinnOSModel()
	if err := f.RegisterModel(mc); err != nil {
		t.Fatal(err)
	}

	var delivered atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := f.Client(fmt.Sprintf("tenant-%d", ci))
			for r := 0; r < perClient; r++ {
				x := linnosFeature(ci, r)
				out, err := c.Infer("linnos_fleet", [][]float32{x})
				if err != nil {
					errCh <- fmt.Errorf("tenant %d req %d: %w", ci, r, err)
					return
				}
				ref := net.Forward(x)
				if (out[0][1] > out[0][0]) != (ref[1] > ref[0]) {
					errCh <- fmt.Errorf("tenant %d req %d: prediction diverged", ci, r)
					return
				}
				delivered.Add(1)
			}
		}(ci)
	}

	// Kill the victim once the storm is genuinely mid-flight.
	for delivered.Load() < clients*perClient/4 {
		time.Sleep(50 * time.Microsecond)
	}
	m, err := f.Kill(victim)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err) // a lost or corrupted call
	}

	if got := delivered.Load(); got != clients*perClient {
		t.Fatalf("delivered %d of %d requests", got, clients*perClient)
	}
	if got := f.Shard(victim).State(); got != lake.ShardDead {
		t.Fatalf("victim state %s, want Dead", got)
	}
	// Zero re-executed: no call was resubmitted on another shard, so no
	// daemon answered a redelivery.
	for _, sh := range f.Shards() {
		if r := sh.Runtime().Daemon().Redelivered(); r != 0 {
			t.Fatalf("shard %d redelivered %d commands", sh.Ordinal(), r)
		}
	}
	st := f.Stats()
	if st.Migrations != 1 {
		t.Fatalf("migrations=%d, want 1", st.Migrations)
	}
	t.Logf("kill: src=%d tenants=%d reroutes=%d fallbackFlushes=%d",
		m.Src, m.Tenants, st.Reroutes, f.Shard(victim).Batcher().Stats().FallbackFlushes)

	// Every surviving-shard call must be reconstructable by the laketrace
	// pipeline: dump the fleet recorder and stitch.
	dump := f.Recorder().TriggerDump("chaos-shard-kill")
	if dump == nil {
		t.Fatal("no flight-recorder dump")
	}
	res := flightrec.Stitch(dump)
	perShard := make(map[int]int)
	for _, tl := range res.Timelines {
		if tl.Shard == victim || !tl.Completed {
			continue
		}
		if !tl.Complete {
			t.Fatalf("surviving-shard call trace=%#x shard=%d not reconstructable: missing %v",
				tl.TraceID, tl.Shard, tl.Missing)
		}
		perShard[tl.Shard]++
	}
	for _, sh := range f.Shards() {
		if sh.Ordinal() == victim {
			continue
		}
		if perShard[sh.Ordinal()] == 0 {
			t.Fatalf("no reconstructed calls on surviving shard %d", sh.Ordinal())
		}
	}
}
