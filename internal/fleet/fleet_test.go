// Fleet router, admission and migration semantics: placement policies,
// sticky tenancy, weighted fair-share admission, drain/kill journal
// handoff, and the determinism contract — a fixed-seed drained run must be
// bit-identical to an undrained one.
package fleet_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lakego/internal/batcher"
	"lakego/internal/core"
	"lakego/internal/faults"
	"lakego/internal/fleet"
	"lakego/internal/flightrec"
	"lakego/internal/gpupool"
	"lakego/internal/lifecycle"
	"lakego/internal/nn"
	"lakego/internal/policy"
	"lakego/internal/remoting"
)

// testNet builds the reference network shared by every test; a fixed seed
// keeps forwards bit-identical across runs and shards.
func testNet() *nn.Network { return nn.New(7, 4, 8, 2) }

func testModel(net *nn.Network) batcher.ModelConfig {
	return batcher.ModelConfig{
		Name:       "fleetnet",
		InputWidth: 4, OutputWidth: 2,
		MaxBatch:     64,
		CPUFixed:     2 * time.Microsecond,
		CPUPerItem:   time.Microsecond,
		FlopsPerItem: 300,
		Forward:      net.Forward,
	}
}

func newFleet(t testing.TB, shards int, pol gpupool.Policy, mutate func(*fleet.Config)) (*fleet.Fleet, *nn.Network) {
	t.Helper()
	cfg := fleet.Config{
		Runtime: core.DefaultConfig(),
		Batcher: batcher.Config{
			MaxBatch: 16,
			MaxWait:  100 * time.Microsecond,
			Linger:   0,
		},
	}
	cfg.Runtime.NumShards = shards
	cfg.Runtime.RouterPolicy = pol
	cfg.Runtime.RouterSeed = 42
	if mutate != nil {
		mutate(&cfg)
	}
	f, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	net := testNet()
	if err := f.RegisterModel(testModel(net)); err != nil {
		t.Fatal(err)
	}
	return f, net
}

func feature(i int) []float32 {
	return []float32{
		float32(i%7) / 7,
		float32(i%5) / 5,
		float32(i%3) / 3,
		float32(i%11) / 11,
	}
}

// inferOne runs one single-item request for the client and checks the
// prediction against the reference forward pass.
func inferOne(t *testing.T, c *fleet.Client, net *nn.Network, i int) []float32 {
	t.Helper()
	x := feature(i)
	out, err := c.Infer("fleetnet", [][]float32{x})
	if err != nil {
		t.Fatalf("infer %d: %v", i, err)
	}
	want := net.Forward(x)
	if len(out) != 1 || len(out[0]) != len(want) {
		t.Fatalf("infer %d: wrong shape", i)
	}
	for j := range want {
		if out[0][j] != want[j] {
			t.Fatalf("infer %d: prediction diverged from reference", i)
		}
	}
	return out[0]
}

func TestFleetRoundRobinPlacement(t *testing.T) {
	f, net := newFleet(t, 4, gpupool.RoundRobin, nil)
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		c := f.Client(name)
		inferOne(t, c, net, i)
		if got := c.Tenant().Shard(); got != i%4 {
			t.Fatalf("tenant %d placed on shard %d, want %d", i, got, i%4)
		}
	}
	if st := f.Stats(); st.Placements != 8 || st.Reroutes != 0 {
		t.Fatalf("placements=%d reroutes=%d, want 8/0", st.Placements, st.Reroutes)
	}
}

func TestFleetConsistentHashStickyAndReproducible(t *testing.T) {
	place := func() map[string]int {
		f, net := newFleet(t, 4, gpupool.ConsistentHash, nil)
		got := make(map[string]int)
		for i := 0; i < 16; i++ {
			name := fmt.Sprintf("tenant-%d", i)
			c := f.Client(name)
			inferOne(t, c, net, i)
			first := c.Tenant().Shard()
			inferOne(t, c, net, i+100)
			if c.Tenant().Shard() != first {
				t.Fatalf("tenant %s moved shards without a drain", name)
			}
			got[name] = first
		}
		return got
	}
	a, b := place(), place()
	used := make(map[int]bool)
	for name, s := range a {
		if b[name] != s {
			t.Fatalf("tenant %s placed on %d then %d with the same seed", name, s, b[name])
		}
		used[s] = true
	}
	if len(used) < 2 {
		t.Fatalf("consistent hash used %d of 4 shards for 16 tenants", len(used))
	}
}

func TestFleetLeastOutstandingPlacement(t *testing.T) {
	f, _ := newFleet(t, 2, gpupool.LeastOutstanding, nil)
	a := f.Client("tenant-a")
	var pend []*fleet.Pending
	for i := 0; i < 2; i++ {
		p, err := a.Submit("fleetnet", [][]float32{feature(i)})
		if err != nil {
			t.Fatal(err)
		}
		pend = append(pend, p)
	}
	if got := a.Tenant().Shard(); got != 0 {
		t.Fatalf("first tenant on shard %d, want 0", got)
	}
	b := f.Client("tenant-b")
	p, err := b.Submit("fleetnet", [][]float32{feature(9)})
	if err != nil {
		t.Fatal(err)
	}
	pend = append(pend, p)
	if got := b.Tenant().Shard(); got != 1 {
		t.Fatalf("second tenant on shard %d, want 1 (shard 0 has 2 outstanding)", got)
	}
	for _, p := range pend {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.Stats().Outstanding; got != 0 {
		t.Fatalf("outstanding=%d after all waits, want 0", got)
	}
}

func TestFleetContentionAwarePlacement(t *testing.T) {
	f, net := newFleet(t, 3, gpupool.ContentionAware, nil)
	c := f.Client("tenant-a")
	inferOne(t, c, net, 1)
	s := c.Tenant().Shard()
	if s < 0 || s > 2 {
		t.Fatalf("placed on shard %d", s)
	}
	if f.Shard(s).State() != fleet.Active {
		t.Fatalf("placed on non-active shard %d", s)
	}
	inferOne(t, c, net, 2)
	if c.Tenant().Shard() != s {
		t.Fatal("tenant moved shards without a drain")
	}
}

func TestFleetTenantCap(t *testing.T) {
	f, _ := newFleet(t, 1, gpupool.RoundRobin, nil)
	f.Tenant("capped", fleet.TenantConfig{MaxOutstanding: 2})
	c := f.Client("capped")
	var pend []*fleet.Pending
	for i := 0; i < 2; i++ {
		p, err := c.Submit("fleetnet", [][]float32{feature(i)})
		if err != nil {
			t.Fatal(err)
		}
		pend = append(pend, p)
	}
	if _, err := c.Submit("fleetnet", [][]float32{feature(3)}); !errors.Is(err, batcher.ErrBackpressure) {
		t.Fatalf("third submit err=%v, want ErrBackpressure", err)
	}
	if got := f.Stats().Rejects; got != 1 {
		t.Fatalf("rejects=%d, want 1", got)
	}
	for _, p := range pend {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// Draining outstanding restores admission.
	p, err := c.Submit("fleetnet", [][]float32{feature(4)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestFleetFairShareAdmission(t *testing.T) {
	f, _ := newFleet(t, 1, gpupool.RoundRobin, func(cfg *fleet.Config) {
		cfg.MaxOutstanding = 4
	})
	f.Tenant("a", fleet.TenantConfig{Weight: 1})
	f.Tenant("b", fleet.TenantConfig{Weight: 1})
	a, b := f.Client("a"), f.Client("b")

	// Work-conserving: with b idle, a may run past its share of 2 up to
	// the fleet cap.
	var pend []*fleet.Pending
	for i := 0; i < 4; i++ {
		p, err := a.Submit("fleetnet", [][]float32{feature(i)})
		if err != nil {
			t.Fatalf("submit %d (below fleet cap): %v", i, err)
		}
		pend = append(pend, p)
	}
	// At the cap, a is over its 2-slot share: rejected.
	if _, err := a.Submit("fleetnet", [][]float32{feature(9)}); !errors.Is(err, batcher.ErrBackpressure) {
		t.Fatalf("over-share submit err=%v, want ErrBackpressure", err)
	}
	// b is under its guaranteed share: admitted even at the cap.
	p, err := b.Submit("fleetnet", [][]float32{feature(10)})
	if err != nil {
		t.Fatalf("under-share submit rejected: %v", err)
	}
	pend = append(pend, p)
	for _, p := range pend {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFleetDrainMigratesJournalAndTenants(t *testing.T) {
	f, net := newFleet(t, 2, gpupool.RoundRobin, nil)
	a, b := f.Client("tenant-a"), f.Client("tenant-b")
	for i := 0; i < 4; i++ {
		inferOne(t, a, net, i)
		inferOne(t, b, net, 100+i)
	}
	if a.Tenant().Shard() != 0 || b.Tenant().Shard() != 1 {
		t.Fatalf("unexpected placements %d/%d", a.Tenant().Shard(), b.Tenant().Shard())
	}

	m, err := f.Drain(0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Src != 0 || m.Dst != 1 {
		t.Fatalf("migrated %d->%d, want 0->1", m.Src, m.Dst)
	}
	if m.JournalEntries == 0 {
		t.Fatal("no journal entries crossed in the handoff")
	}
	if m.Tenants != 1 {
		t.Fatalf("moved %d tenants, want 1", m.Tenants)
	}
	if m.HandoffBytes == 0 {
		t.Fatal("empty handoff frame")
	}
	if got := f.Shard(0).State(); got != fleet.Dead {
		t.Fatalf("drained shard state %s, want Dead", got)
	}

	// A second drain of the same shard must refuse.
	if _, err := f.Drain(0); err == nil {
		t.Fatal("double drain succeeded")
	}

	// The drained shard's tenant re-routes on its next call and keeps
	// computing bit-identical results.
	inferOne(t, a, net, 50)
	if got := a.Tenant().Shard(); got != 1 {
		t.Fatalf("tenant-a re-routed to shard %d, want 1", got)
	}
	st := f.Stats()
	if st.Migrations != 1 || st.Reroutes != 1 {
		t.Fatalf("migrations=%d reroutes=%d, want 1/1", st.Migrations, st.Reroutes)
	}
	// Zero re-executed: the surviving daemon answered no redeliveries and
	// nothing was lost along the way (every Infer above checked its
	// prediction).
	for _, sh := range f.Shards() {
		if r := sh.Runtime().Daemon().Redelivered(); r != 0 {
			t.Fatalf("shard %d redelivered %d commands", sh.Ordinal(), r)
		}
	}
}

// TestFleetDrainDeterministic is the fleet analogue of
// TestPoolChaosDeterministic: a fixed-seed serial workload must produce
// bit-identical predictions — and execute every command exactly once —
// whether or not a shard drains mid-run.
func TestFleetDrainDeterministic(t *testing.T) {
	const tenants, rounds = 6, 8
	run := func(drainAtRound int) (preds []float32, executed int64, placements int64) {
		f, _ := newFleet(t, 4, gpupool.RoundRobin, nil)
		net := testNet()
		clients := make([]*fleet.Client, tenants)
		for i := range clients {
			clients[i] = f.Client(fmt.Sprintf("tenant-%d", i))
		}
		for r := 0; r < rounds; r++ {
			if r == drainAtRound {
				if _, err := f.Drain(1); err != nil {
					t.Fatal(err)
				}
			}
			for ci, c := range clients {
				x := feature(r*tenants + ci)
				out, err := c.Infer("fleetnet", [][]float32{x})
				if err != nil {
					t.Fatalf("round %d tenant %d: %v", r, ci, err)
				}
				want := net.Forward(x)
				for j := range want {
					if out[0][j] != want[j] {
						t.Fatalf("round %d tenant %d: diverged", r, ci)
					}
				}
				preds = append(preds, out[0]...)
			}
		}
		for _, sh := range f.Shards() {
			executed += sh.Runtime().Daemon().Executed()
			if rd := sh.Runtime().Daemon().Redelivered(); rd != 0 {
				t.Fatalf("shard %d redelivered %d", sh.Ordinal(), rd)
			}
		}
		return preds, executed, f.Stats().Placements
	}

	p1, e1, pl1 := run(-1)
	p2, e2, pl2 := run(-1)
	if e1 != e2 || pl1 != pl2 {
		t.Fatalf("two identical runs diverged: executed %d/%d placements %d/%d", e1, e2, pl1, pl2)
	}
	pd, ed, _ := run(rounds / 2)
	if len(p1) != len(p2) || len(p1) != len(pd) {
		t.Fatalf("prediction counts diverged: %d/%d/%d", len(p1), len(p2), len(pd))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("identical runs: prediction %d diverged", i)
		}
		if p1[i] != pd[i] {
			t.Fatalf("drained run: prediction %d diverged from undrained", i)
		}
	}
	if ed != e1 {
		t.Fatalf("drained run executed %d commands, undrained %d — work was lost or re-executed", ed, e1)
	}
}

// TestFleetShardDeviceLabels is the regression test for the merged-
// exposition label collision: with two shards of two devices each, every
// per-device series must stay distinct under the merge — before the
// shard label, both shards' `device="0"` series collided and the second
// shard's silently vanished.
func TestFleetShardDeviceLabels(t *testing.T) {
	f, net := newFleet(t, 2, gpupool.RoundRobin, func(cfg *fleet.Config) {
		cfg.Runtime.NumDevices = 2
	})
	for i := 0; i < 4; i++ {
		inferOne(t, f.Client(fmt.Sprintf("tenant-%d", i)), net, i)
	}
	text := f.PrometheusText()
	for shard := 0; shard < 2; shard++ {
		for dev := 0; dev < 2; dev++ {
			series := fmt.Sprintf(`lake_gpu_launches_total{device="%d",shard="%d"}`, dev, shard)
			if !strings.Contains(text, series) {
				t.Fatalf("merged exposition is missing %s", series)
			}
		}
	}
	// No series identity may repeat across the merged registries.
	seen := make(map[string]bool)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id := line
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			id = line[:i]
		}
		if seen[id] {
			t.Fatalf("duplicate series in merged exposition: %s", id)
		}
		seen[id] = true
	}
}

// TestFleetKillFallsBackAndMigrates kills a shard with queued work: the
// in-flight requests complete on the CPU fallback path (zero lost), the
// journal crosses to a successor, and redeliveries stay zero (zero
// re-executed).
func TestFleetKillFallsBackAndMigrates(t *testing.T) {
	f, net := newFleet(t, 2, gpupool.RoundRobin, func(cfg *fleet.Config) {
		cfg.Runtime.Faults = &faults.Mix{Seed: 21} // plane attached; the kill is manual
	})
	a, b := f.Client("tenant-a"), f.Client("tenant-b")
	inferOne(t, a, net, 0)
	inferOne(t, b, net, 1)

	// Queue work on shard 0, then kill it before the flush runs.
	var pend []*fleet.Pending
	for i := 0; i < 3; i++ {
		p, err := a.Submit("fleetnet", [][]float32{feature(10 + i)})
		if err != nil {
			t.Fatal(err)
		}
		pend = append(pend, p)
	}
	if _, err := f.Kill(0); err != nil {
		t.Fatal(err)
	}
	for i, p := range pend {
		out, err := p.Wait()
		if err != nil {
			t.Fatalf("queued request %d lost to the kill: %v", i, err)
		}
		want := net.Forward(feature(10 + i))
		for j := range want {
			if out[0][j] != want[j] {
				t.Fatalf("queued request %d diverged after kill", i)
			}
		}
	}
	if fb := f.Shard(0).Batcher().Stats().FallbackFlushes; fb == 0 {
		t.Fatal("killed shard's queued work did not use the CPU fallback")
	}
	// The tenant lands on the survivor and keeps computing correctly.
	inferOne(t, a, net, 20)
	if got := a.Tenant().Shard(); got != 1 {
		t.Fatalf("tenant-a on shard %d after kill, want 1", got)
	}
	for _, sh := range f.Shards() {
		if r := sh.Runtime().Daemon().Redelivered(); r != 0 {
			t.Fatalf("shard %d redelivered %d commands", sh.Ordinal(), r)
		}
	}
	if st := f.Stats(); st.Migrations != 1 {
		t.Fatalf("migrations=%d, want 1", st.Migrations)
	}
}

func TestFleetLastShardKillLeavesNoSuccessor(t *testing.T) {
	f, _ := newFleet(t, 1, gpupool.RoundRobin, func(cfg *fleet.Config) {
		cfg.Runtime.Faults = &faults.Mix{Seed: 3}
	})
	if _, err := f.Kill(0); err == nil {
		t.Fatal("killing the last shard reported a successor")
	}
	if got := f.Shard(0).State(); got != fleet.Dead {
		t.Fatalf("state %s, want Dead", got)
	}
	if _, err := f.Client("t").Submit("fleetnet", [][]float32{feature(0)}); err == nil {
		t.Fatal("submit succeeded with no active shard")
	}
}

func TestFleetVirtualElapsed(t *testing.T) {
	f, net := newFleet(t, 2, gpupool.RoundRobin, nil)
	inferOne(t, f.Client("a"), net, 0) // shard 0
	if f.VirtualElapsed() != f.Shard(0).Clock().Now() {
		t.Fatal("elapsed should track the busiest shard")
	}
	inferOne(t, f.Client("b"), net, 1) // shard 1
	max := f.Shard(0).Clock().Now()
	if c1 := f.Shard(1).Clock().Now(); c1 > max {
		max = c1
	}
	if f.VirtualElapsed() != max {
		t.Fatalf("VirtualElapsed=%v, want max shard clock %v", f.VirtualElapsed(), max)
	}
}

// TestFleetStatsIndependentOfTelemetry runs one seeded single-driver chaos
// scenario twice — telemetry on, telemetry off — and requires every
// Stats-style accessor to report the same counts: each fact has one counter,
// owned by its component, which the registry only exports. The scenario
// drives a router reject, a batcher reject, a drain (migration + reroute),
// channel faults (retries, redeliveries) and lifecycle feedback drops.
func TestFleetStatsIndependentOfTelemetry(t *testing.T) {
	type result struct {
		fleet     fleet.Stats
		rejected  []int64
		resil     []remoting.ResilienceStats
		lifecycle lifecycle.Stats
	}
	run := func(t *testing.T, disable bool) result {
		f, net := newFleet(t, 2, gpupool.RoundRobin, func(cfg *fleet.Config) {
			cfg.Runtime.DisableTelemetry = disable
			cfg.Runtime.ShmBytes = 16 << 20
			cfg.Runtime.Faults = &faults.Mix{Drop: 0.05, Corrupt: 0.05, Duplicate: 0.05, Seed: 9}
			cfg.Batcher.ClientDepth = 2
		})
		f.Tenant("capped", fleet.TenantConfig{MaxOutstanding: 2})
		capped, free := f.Client("capped"), f.Client("free")
		for i := 0; i < 40; i++ {
			inferOne(t, capped, net, i)
			inferOne(t, free, net, 100+i)
		}
		// Third in-flight submit: the capped tenant is refused by the router,
		// the free one by its shard batcher's client depth.
		for _, c := range []*fleet.Client{capped, free} {
			var pend []*fleet.Pending
			for i := 0; i < 3; i++ {
				p, err := c.Submit("fleetnet", [][]float32{feature(i)})
				if i == 2 {
					if !errors.Is(err, batcher.ErrBackpressure) {
						t.Fatalf("third in-flight submit err=%v, want ErrBackpressure", err)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				pend = append(pend, p)
			}
			for _, p := range pend {
				if _, err := p.Wait(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := f.Drain(0); err != nil {
			t.Fatal(err)
		}
		inferOne(t, capped, net, 7)

		lcfg := lifecycle.DefaultConfig("fleetnet")
		lcfg.Minibatch = 4
		m, err := lifecycle.New(f.Shard(1).Runtime(), lcfg, net)
		if err != nil {
			t.Fatal(err)
		}
		// Twelve offers past the 4096-outcome feedback buffer are dropped.
		for i := 0; i < 4096+12; i++ {
			m.Observe(lifecycle.Outcome{X: feature(i), Predicted: 0, Label: i % 2})
		}
		m.Pump()

		r := result{fleet: f.Stats(), lifecycle: m.Stats()}
		for _, s := range f.Shards() {
			r.rejected = append(r.rejected, s.Batcher().Stats().Rejected)
			r.resil = append(r.resil, s.Runtime().Lib().ResilienceStats())
		}
		return r
	}
	var got [2]result
	for i, disable := range []bool{false, true} {
		t.Run(fmt.Sprintf("DisableTelemetry=%v", disable), func(t *testing.T) {
			r := run(t, disable)
			got[i] = r
			st := r.fleet
			if st.Placements != 3 || st.Reroutes != 1 || st.Migrations != 1 || st.Rejects != 1 {
				t.Errorf("router counters placements=%d reroutes=%d migrations=%d rejects=%d, want 3/1/1/1",
					st.Placements, st.Reroutes, st.Migrations, st.Rejects)
			}
			if r.rejected[0]+r.rejected[1] != 1 {
				t.Errorf("batcher rejects %v, want one", r.rejected)
			}
			if r.resil[0].Retries+r.resil[1].Retries == 0 {
				t.Error("fault mix produced no retries: the scenario does not exercise ResilienceStats")
			}
			if r.lifecycle.Dropped != 12 {
				t.Errorf("lifecycle dropped %d outcomes, want 12", r.lifecycle.Dropped)
			}
		})
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Fatalf("counters depend on the telemetry switch:\non  %+v\noff %+v", got[0], got[1])
	}
}

// TestFleetAdmissionCapsHoldUnderConcurrency hammers one tenant from many
// goroutines: admission reserves its slot before checking the cap, so the
// in-flight high-water mark can never pass the tenant cap, nor — for a
// tenant that is the whole fleet weight — the fleet fair-share cap. Run
// under -race.
func TestFleetAdmissionCapsHoldUnderConcurrency(t *testing.T) {
	for _, tc := range []struct {
		name             string
		tenantCap, fleet int
	}{
		{"tenant cap", 2, 0},
		{"fleet fair share", 0, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, _ := newFleet(t, 1, gpupool.RoundRobin, func(cfg *fleet.Config) {
				cfg.MaxOutstanding = tc.fleet
				cfg.Runtime.ShmBytes = 16 << 20
			})
			tenant := f.Tenant("hot", fleet.TenantConfig{MaxOutstanding: tc.tenantCap})
			var admitted atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < 16; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					c := f.Client("hot")
					for i := 0; i < 50; i++ {
						p, err := c.Submit("fleetnet", [][]float32{feature(g*50 + i)})
						if errors.Is(err, batcher.ErrBackpressure) {
							continue
						}
						if err != nil {
							t.Error(err)
							return
						}
						admitted.Add(1)
						if _, err := p.Wait(); err != nil {
							t.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			limit := int64(tc.tenantCap + tc.fleet)
			if peak := tenant.PeakOutstanding(); peak > limit || peak == 0 {
				t.Fatalf("peak outstanding %d, want within (0, %d]", peak, limit)
			}
			st := f.Stats()
			if tenant.Outstanding() != 0 || st.Outstanding != 0 {
				t.Fatalf("slots leaked: tenant %d, fleet %d outstanding after every Wait",
					tenant.Outstanding(), st.Outstanding)
			}
			if got := admitted.Load() + st.Rejects; got != 16*50 {
				t.Fatalf("admitted %d + rejected %d != %d submits", admitted.Load(), st.Rejects, 16*50)
			}
		})
	}
}

// TestRouteEventPayload: only a placement reads the wall clock, and only
// while the recorder is on, to fill the route hop. With it on, every
// request's EvEnqueue lands in the batcher domain of its destination shard
// carrying the request's trace ID and the folded hop: the policy and no
// reroute. A tenant's first submit places it and carries a decide time that
// is a real interval (> 0, and not the decades a reading taken against an
// unset start would give); every later, sticky submit carries 0. No
// router-domain route event is written.
func TestRouteEventPayload(t *testing.T) {
	f, net := newFleet(t, 2, gpupool.RoundRobin, nil)
	if !f.Recorder().Enabled() {
		t.Fatal("fleet recorder is off by default; the test assumes the shipping configuration")
	}
	clients := []*fleet.Client{f.Client("a"), f.Client("b")}
	for round := 0; round < 2; round++ {
		for i, c := range clients {
			inferOne(t, c, net, 2*round+i)
		}
	}
	type hop struct {
		e flightrec.Event
		r flightrec.Route
	}
	routes := func() (hops []hop) {
		for _, dd := range f.Recorder().Snapshot("test").Domains {
			for _, e := range dd.Events {
				if e.Kind == flightrec.EvRoute {
					t.Fatalf("router-domain route event written: %+v", e)
				}
				if r, ok := e.Route(); ok {
					hops = append(hops, hop{e, r})
				}
			}
		}
		return hops
	}
	hops := routes()
	if len(hops) != 2*len(clients) {
		t.Fatalf("%d routed enqueues for %d requests", len(hops), 2*len(clients))
	}
	// Each shard's enqueues are in submit order; round robin put a on 0, b on 1.
	for i, h := range hops {
		c := clients[int(h.e.Shard)]
		placed := h.e.Seq == 0 // the tenant's first request on its shard
		if h.e.Kind != flightrec.EvEnqueue || h.e.Domain != flightrec.DomainBatcher || h.e.TraceID == 0 ||
			int(h.e.Shard) != c.Tenant().Shard() {
			t.Errorf("hop %d: %v/%v trace %d shard %d, want a batcher-domain enqueue with a trace ID on shard %d",
				i, h.e.Domain, h.e.Kind, h.e.TraceID, h.e.Shard, c.Tenant().Shard())
		}
		if h.r.Policy != uint64(gpupool.RoundRobin) || h.r.Reroute ||
			(placed && (h.r.DecideNs == 0 || h.r.DecideNs >= uint64(time.Second))) || (!placed && h.r.DecideNs != 0) {
			t.Errorf("hop %d (placement %v): policy %d reroute %v decide %d ns", i, placed, h.r.Policy, h.r.Reroute, h.r.DecideNs)
		}
	}
	f.Recorder().SetEnabled(false)
	inferOne(t, clients[0], net, 7)
	if n := len(routes()); n != 2*len(clients) {
		t.Fatalf("%d routed enqueues after a request with the recorder off, want still %d", n, 2*len(clients))
	}
}

// TestStitchLinksFlushMembersBySeqRange: a flush is the seq range [Seq,
// Seq+a0) of one model's queue on one shard, and that alone must re-home
// every member's route hop and enqueue onto the flush's remoted call. Two
// models share one batcher per shard (so seqs overlap across models), two
// shards run the same shape (so seqs and handles overlap across shards),
// with multi-item requests, a full flush, a deadline flush and a CPU-routed
// flush, which has no call to re-home onto. Each shard's clock steps
// differently, so a member re-homed across shards or models would move the
// coalesce window, the oldest member's enqueue to the flush.
func TestStitchLinksFlushMembersBySeqRange(t *testing.T) {
	const maxWait = 100 * time.Microsecond
	f, net := newFleet(t, 2, gpupool.RoundRobin, func(cfg *fleet.Config) {
		cfg.Batcher.MaxBatch = 4
		cfg.Batcher.MaxWait = maxWait
		cfg.Batcher.Policy = func(items int) policy.Decision {
			if items == 3 {
				return policy.UseCPU
			}
			return policy.UseGPU
		}
	})
	other := testModel(net)
	other.Name = "fleetnet2"
	if err := f.RegisterModel(other); err != nil {
		t.Fatal(err)
	}
	type flush struct {
		shard   uint16
		members uint64
		oldest  time.Duration // the oldest member's enqueue
		wait    time.Duration // its wait until the flush fired
		gpu     bool
	}
	var want []flush
	for i, tenant := range []string{"a", "b"} {
		c := f.Client(tenant)
		s, err := c.Route()
		if err != nil {
			t.Fatal(err)
		}
		clk, step := s.Clock(), time.Duration(i+1)*10*time.Microsecond
		submit := func(model string, items int) *fleet.Pending {
			x := make([][]float32, items)
			for j := range x {
				x[j] = feature(j)
			}
			p, err := c.Submit(model, x)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		wait := func(ps ...*fleet.Pending) {
			for _, p := range ps {
				if _, err := p.Wait(); err != nil {
					t.Fatal(err)
				}
			}
		}
		sh := uint16(s.Ordinal())
		// Full: 1 + 3 items fill MaxBatch on the second submit.
		t0 := clk.Now()
		p1 := submit("fleetnet", 1)
		clk.Advance(step)
		wait(p1, submit("fleetnet", 3))
		want = append(want, flush{sh, 2, t0, step, true})
		// Deadline on the other model, whose seqs restart at 0.
		t1 := clk.Now()
		q1 := submit("fleetnet2", 1)
		clk.Advance(step)
		wait(q1, submit("fleetnet2", 1))
		want = append(want, flush{sh, 2, t1, maxWait, true})
		// Deadline, 2 + 1 items: the policy routes it to the CPU.
		t2 := clk.Now()
		r1 := submit("fleetnet", 2)
		clk.Advance(step)
		wait(r1, submit("fleetnet", 1))
		want = append(want, flush{sh, 2, t2, maxWait, false})
	}

	dump := f.Recorder().Snapshot("linkage")
	if dump.TotalDropped() != 0 {
		t.Fatalf("recorder dropped %d events", dump.TotalDropped())
	}
	res := flightrec.Stitch(dump)
	byTID := make(map[uint64]flightrec.Timeline)
	routes := 0
	for _, tl := range res.Timelines {
		byTID[tl.TraceID] = tl
		routes += tl.Routes
	}
	var starts []flightrec.Event
	for _, e := range dump.Domains[flightrec.DomainBatcher].Events {
		if e.Kind == flightrec.EvFlushStart {
			starts = append(starts, e)
		}
	}
	if len(starts) != len(want) {
		t.Fatalf("%d flushes, want %d", len(starts), len(want))
	}
	gpuMembers := 0
	for i, w := range want {
		fs := starts[i]
		if fs.Shard != w.shard || fs.Arg0 != w.members {
			t.Errorf("flush %d: shard %d members %d, want %d and %d", i, fs.Shard, fs.Arg0, w.shard, w.members)
		}
		tl, isCall := byTID[fs.TraceID]
		if !w.gpu {
			if isCall {
				t.Errorf("flush %d ran on the CPU yet stitched into a call: %+v", i, tl)
			}
			continue
		}
		gpuMembers += int(w.members)
		switch {
		case !isCall || !tl.Complete:
			t.Errorf("flush %d: no complete call timeline under trace %d", i, fs.TraceID)
		case tl.Routes != int(w.members) || tl.Shard != int(w.shard):
			t.Errorf("flush %d: %d route hops on shard %d, want %d on shard %d", i, tl.Routes, tl.Shard, w.members, w.shard)
		case tl.CoalesceStartV != w.oldest || tl.Coalesce != w.wait:
			t.Errorf("flush %d: coalesce %v from %v, want the oldest member's %v wait from %v",
				i, tl.Coalesce, tl.CoalesceStartV, w.wait, w.oldest)
		}
	}
	if routes != gpuMembers {
		t.Fatalf("%d route hops re-homed onto calls, want the %d GPU-flushed members", routes, gpuMembers)
	}
}
