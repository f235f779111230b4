// Package fleet shards LAKE horizontally: N independent lakeD runtimes —
// each with its own daemon, supervisor, batcher, device pool and fault
// plane — behind a client-side router.
//
// LAKE's trust argument (§4: one privileged daemon owns the accelerators)
// does not require one *global* daemon: a host with many devices, or a
// deployment that wants fault isolation between kernel subsystems, can run
// several lakeDs, each owning a slice of the hardware. What must not change
// is the client contract — exactly-once execution, deterministic replay,
// explicit backpressure. The fleet keeps those invariants across shards:
//
//   - Routing is client-side and sticky: a tenant is placed onto a shard by
//     a pluggable policy, run by the same engine internal/gpupool places
//     devices with (gpupool.Placer, including its seeded consistent-hash
//     ring), and stays there until the shard drains or dies.
//   - Admission is layered: the batcher's per-client depth still applies on
//     the shard, and the fleet adds per-tenant caps plus weighted fair-share
//     quotas across the whole fleet, both surfacing the same retryable
//     batcher.ErrBackpressure.
//   - Drain/migration generalizes the supervisor's journal re-attach: a
//     shard quiesces, its exactly-once journal crosses to a successor as a
//     CRC-sealed handoff frame (remoting.MarshalHandoff), its tenants are
//     re-routed, and redelivered calls are answered from the merged journal
//     — zero lost, zero re-executed.
//
// Each shard runs on its own virtual clock: shards model independent lakeD
// processes whose service timelines overlap in real time, so charging one
// shard's round trips never stalls another's. The fleet's elapsed virtual
// time is the maximum over shards (the critical path; see VirtualElapsed).
// One flight recorder spans the fleet: each shard holds a view
// (flightrec.WithShard) that stamps events with the shard ordinal and the
// shard's own clock.
package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lakego/internal/batcher"
	"lakego/internal/core"
	"lakego/internal/flightrec"
	"lakego/internal/gpu"
	"lakego/internal/gpupool"
	"lakego/internal/nvml"
	"lakego/internal/telemetry"
	"lakego/internal/vtime"
)

// Config parameterizes a fleet.
type Config struct {
	// Runtime is the per-shard template. NumShards, RouterPolicy and
	// RouterSeed are consumed here (core.New ignores them); every other
	// field applies to each shard identically, except Clock and Recorder,
	// which the fleet always creates itself: one fresh clock per shard
	// (shards are independent processes with independent timelines) and one
	// root flight recorder whose per-shard views it hands to each runtime.
	Runtime core.Config
	// Batcher parameterizes every shard's batching subsystem.
	Batcher batcher.Config
	// MaxOutstanding caps fleet-wide in-flight requests for fair-share
	// admission: a tenant above its weighted share is rejected once the
	// fleet is at this cap (work-conserving: below the cap any tenant may
	// exceed its share). 0 disables the fleet-wide cap; per-tenant caps
	// and per-shard batcher depth still apply.
	MaxOutstanding int
}

// ShardState is the router's view of one shard.
type ShardState int32

const (
	// Active shards accept placements and traffic.
	Active ShardState = iota
	// Draining shards are excluded from placement while in-flight work
	// quiesces; they still answer journal redeliveries.
	Draining
	// Dead shards are gone: daemon abandoned, journal migrated, tenants
	// re-routed.
	Dead
)

var shardStateNames = [...]string{"Active", "Draining", "Dead"}

func (s ShardState) String() string {
	if s < 0 || int(s) >= len(shardStateNames) {
		return fmt.Sprintf("ShardState(%d)", int(s))
	}
	return shardStateNames[s]
}

// Shard is one lakeD runtime plus its batcher under fleet management.
type Shard struct {
	ord   int
	rt    *core.Runtime
	b     *batcher.Batcher
	clock *vtime.Clock
	state atomic.Int32
	// outstanding counts in-flight fleet requests routed to this shard,
	// the least-outstanding router signal.
	outstanding atomic.Int64
}

// Ordinal returns the shard's index in the fleet.
func (s *Shard) Ordinal() int { return s.ord }

// Runtime returns the shard's LAKE runtime.
func (s *Shard) Runtime() *core.Runtime { return s.rt }

// Batcher returns the shard's batching subsystem.
func (s *Shard) Batcher() *batcher.Batcher { return s.b }

// Clock returns the shard's own virtual clock.
func (s *Shard) Clock() *vtime.Clock { return s.clock }

// State returns the router's view of the shard.
func (s *Shard) State() ShardState { return ShardState(s.state.Load()) }

// Outstanding reports in-flight fleet requests currently routed here.
func (s *Shard) Outstanding() int64 { return s.outstanding.Load() }

// Fleet is a booted shard set plus its router state.
type Fleet struct {
	cfg    Config
	rec    *flightrec.Recorder // root recorder; shard views wrap it
	shards []*Shard
	policy gpupool.Policy

	mu      sync.Mutex
	placer  gpupool.Placer
	tenants map[string]*Tenant

	outstanding atomic.Int64 // fleet-wide, for the fair-share cap
	totalWeight atomic.Int64

	// The router counters are what Stats reports and what the fleet-level
	// registry tel exports; tel and the gauges are nil with telemetry
	// disabled.
	tel                                       *telemetry.Registry
	placements, reroutes, migrations, rejects telemetry.Counter
	gpuUtil, memUtil                          *telemetry.Gauge
}

// New boots cfg.Runtime.NumShards independent runtimes — one virtual clock
// each — shares one flight recorder across them, and builds the router.
func New(cfg Config) (*Fleet, error) {
	n := cfg.Runtime.NumShards
	if n <= 0 {
		n = 1
	}
	f := &Fleet{
		cfg:     cfg,
		policy:  cfg.Runtime.RouterPolicy,
		placer:  gpupool.NewPlacer(cfg.Runtime.RouterPolicy, n, cfg.Runtime.RouterSeed),
		tenants: make(map[string]*Tenant),
	}
	telemetryOn := !cfg.Runtime.DisableTelemetry
	recorderOn := telemetryOn && !cfg.Runtime.DisableFlightRecorder
	if recorderOn {
		// The root's own clock only stamps events emitted outside any
		// shard; shard views carry their shard's clock.
		f.rec = flightrec.New(vtime.New(), cfg.Runtime.FlightRecorderSize)
	}
	if telemetryOn {
		f.tel = telemetry.NewRegistry()
	}
	f.tel.AttachCounter("lake_router_placements_total", "Tenant placements decided by the fleet router.", &f.placements)
	f.tel.AttachCounter("lake_router_reroutes_total", "Placements that moved a tenant off a draining or dead shard.", &f.reroutes)
	f.tel.AttachCounter("lake_router_migrations_total", "Completed shard journal migrations (drains and kills).", &f.migrations)
	f.tel.AttachCounter("lake_router_admission_rejects_total", "Submissions rejected by fleet admission (tenant cap or fair share).", &f.rejects)
	f.gpuUtil = f.tel.Gauge("lake_fleet_gpu_util", "Last fleet-wide NVML GPU utilization aggregate (percent).")
	f.memUtil = f.tel.Gauge("lake_fleet_mem_util", "Last fleet-wide NVML memory utilization aggregate (percent).")
	for i := 0; i < n; i++ {
		clk := vtime.New()
		scfg := cfg.Runtime
		scfg.NumShards = 0
		scfg.Clock = clk
		scfg.ShardOrdinal = i
		scfg.ShardLabel = fmt.Sprint(i)
		scfg.Recorder = nil
		if f.rec != nil {
			scfg.Recorder = f.rec.WithShard(i, clk)
		}
		rt, err := core.New(scfg)
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d: %w", i, err)
		}
		f.shards = append(f.shards, &Shard{
			ord:   i,
			rt:    rt,
			b:     batcher.New(rt, cfg.Batcher),
			clock: clk,
		})
	}
	return f, nil
}

// Shard returns shard ord; it panics on an out-of-range ordinal, like
// indexing a slice.
func (f *Fleet) Shard(ord int) *Shard { return f.shards[ord] }

// Shards returns the fleet's shards in ordinal order. Callers must not
// mutate the slice.
func (f *Fleet) Shards() []*Shard { return f.shards }

// VirtualElapsed returns the fleet's elapsed virtual time: the maximum
// over shards of each shard's clock. Shards are independent processes whose
// service timelines run concurrently, so the fleet finishes when its
// slowest shard does — the critical-path makespan, the denominator for
// fleet throughput.
func (f *Fleet) VirtualElapsed() time.Duration {
	var max time.Duration
	for _, s := range f.shards {
		if now := s.clock.Now(); now > max {
			max = now
		}
	}
	return max
}

// Recorder returns the fleet's root flight recorder (nil when disabled).
// Shard runtimes hold per-shard views of it; events from every shard land
// in this recorder's rings with shard ordinals stamped on.
func (f *Fleet) Recorder() *flightrec.Recorder { return f.rec }

// Policy returns the router's placement policy.
func (f *Fleet) Policy() gpupool.Policy { return f.policy }

// Telemetry returns the fleet-level (router) registry, nil when telemetry
// is disabled. Per-shard instruments live on each shard runtime's own
// registry; see PrometheusText and Snapshot for the merged view.
func (f *Fleet) Telemetry() *telemetry.Registry { return f.tel }

// RegisterModel installs a model on every shard's batcher: a tenant can be
// (re-)routed to any shard and must find its model there.
func (f *Fleet) RegisterModel(mc batcher.ModelConfig) error {
	for _, s := range f.shards {
		if err := s.b.RegisterModel(mc); err != nil {
			return fmt.Errorf("fleet: shard %d: %w", s.ord, err)
		}
	}
	return nil
}

// AggregateRates folds every shard's device pool into one fleet-wide
// NVML-style reading and records it on the fleet gauges.
func (f *Fleet) AggregateRates() nvml.Utilization {
	var devs []*gpu.Device
	for _, s := range f.shards {
		devs = append(devs, s.rt.Pool().Devices()...)
	}
	u := nvml.AggregateUtilizationRates(devs)
	f.gpuUtil.Set(int64(u.GPU))
	f.memUtil.Set(int64(u.Memory))
	return u
}

// registries returns the fleet registry followed by every shard's, the
// merge order for exposition (router series first, then shards by ordinal).
func (f *Fleet) registries() []*telemetry.Registry {
	regs := []*telemetry.Registry{f.tel}
	for _, s := range f.shards {
		regs = append(regs, s.rt.Telemetry())
	}
	return regs
}

// PrometheusText renders the merged fleet exposition: router series plus
// every shard's registry, shard-labeled series keeping them distinct.
func (f *Fleet) PrometheusText() string {
	f.AggregateRates()
	return telemetry.MergedPrometheusText(f.registries()...)
}

// Snapshot captures the merged fleet metrics view.
func (f *Fleet) Snapshot() telemetry.Snapshot {
	f.AggregateRates()
	return telemetry.MergedSnapshot(f.registries()...)
}

// Stats aggregates per-shard runtime stats plus router counters.
type Stats struct {
	Shards      []core.Stats
	Placements  int64
	Reroutes    int64
	Migrations  int64
	Rejects     int64
	Outstanding int64
}

// Stats snapshots the fleet counters.
func (f *Fleet) Stats() Stats {
	st := Stats{
		Placements:  f.placements.Value(),
		Reroutes:    f.reroutes.Value(),
		Migrations:  f.migrations.Value(),
		Rejects:     f.rejects.Value(),
		Outstanding: f.outstanding.Load(),
	}
	for _, s := range f.shards {
		st.Shards = append(st.Shards, s.rt.Stats())
	}
	return st
}

// Close shuts every shard down.
func (f *Fleet) Close() {
	for _, s := range f.shards {
		s.rt.Close()
	}
}
