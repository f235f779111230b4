// Package lake is the public API of LAKE, a framework for exposing
// ML-focused hardware acceleration in kernel space, reproduced in Go from
// "Towards a Machine Learning-Assisted Kernel with LAKE" (ASPLOS 2023).
//
// A Runtime wires together the three components of Fig 2 — lakeLib (the
// kernel-side API provider), lakeShm (the zero-copy bulk-data channel) and
// lakeD (the user-space daemon realizing accelerator APIs) — plus the
// Fig 3 execution-policy framework. Everything else attaches to a Runtime
// from outside it: NewBatcher (cross-client batching) and NewHealthPlane
// (live health surface) each take the runtime, and the §5 in-kernel
// feature registry is a FeatureStore the caller owns. Because Go cannot run
// in kernel space, the kernel/user boundary and the accelerator are
// high-fidelity simulations on a virtual clock; every protocol layer above
// them (command serialization, shared-memory handoff, policy decisions,
// feature capture) is the real code path.
//
// Quick start:
//
//	rt, err := lake.New(lake.DefaultConfig())
//	if err != nil { ... }
//	defer rt.Close()
//	rt.RegisterKernel(lake.VecAddKernel())
//	lib := rt.Lib()                  // lakeLib: remoted CUDA driver API
//	ctx, _ := lib.CuCtxCreate("app")
//	buf, _ := rt.Region().Alloc(n)   // lakeShm: zero-copy staging
//	...
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package lake

import (
	"lakego/internal/batcher"
	"lakego/internal/boundary"
	"lakego/internal/core"
	"lakego/internal/cuda"
	"lakego/internal/faults"
	"lakego/internal/features"
	"lakego/internal/fleet"
	"lakego/internal/flightrec"
	"lakego/internal/gpupool"
	"lakego/internal/healthplane"
	"lakego/internal/policy"
	"lakego/internal/remoting"
	"lakego/internal/telemetry"
)

// Runtime is one booted LAKE instance; see core.Runtime for method docs.
type Runtime = core.Runtime

// Config parameterizes New.
type Config = core.Config

// Stats is a snapshot of runtime activity counters.
type Stats = core.Stats

// New boots a LAKE runtime.
func New(cfg Config) (*Runtime, error) { return core.New(cfg) }

// DefaultConfig mirrors the paper's deployment: Netlink command channel,
// 128 MiB shared region, A100-class accelerator.
func DefaultConfig() Config { return core.DefaultConfig() }

// Re-exported component types reachable from a Runtime.
type (
	// Result is a CUDA-style status code returned by remoted APIs.
	Result = cuda.Result
	// ChannelKind selects the kernel<->user command channel cost model.
	ChannelKind = boundary.Kind
)

// FeatureSchema describes a feature registry's vectors (§5, Table 1).
type FeatureSchema = features.Schema

// NewFeatureStore creates an empty in-kernel feature registry store (§5):
// the registries and models every Table 1 call names by (name, sys).
func NewFeatureStore() *features.Store { return features.NewStore() }

// BatcherModel describes one batchable model of the cross-client batching
// subsystem (internal/batcher): clients obtain a Batcher from NewBatcher,
// register models, and submit through per-client handles; independent
// requests coalesce into batched GPU launches inside lakeD.
type BatcherModel = batcher.ModelConfig

// NewBatcher attaches the cross-client batching subsystem to rt.
func NewBatcher(rt *Runtime, cfg batcher.Config) *batcher.Batcher { return batcher.New(rt, cfg) }

// Placement policies (internal/gpupool) for Config.PoolPolicy, which
// places contexts on a runtime's modeled accelerators (Config.NumDevices),
// and Config.RouterPolicy, which places tenants on a fleet's shards.
// Placement draws only from the pool's seeded PRNG and the virtual clock, so
// fixed-seed multi-device runs are bit-identical.
const (
	// PoolRoundRobin cycles context placement across devices.
	PoolRoundRobin = gpupool.RoundRobin
	// PoolContentionAware places on the least NVML-utilized device,
	// breaking ties by backlog then seeded PRNG (Fig 3 per device).
	PoolContentionAware = gpupool.ContentionAware
)

// TelemetrySnapshot is a point-in-time JSON-friendly dump of the
// observability plane (internal/telemetry): every runtime carries a metrics
// registry, always on, exposed through Runtime.Telemetry().
type TelemetrySnapshot = telemetry.Snapshot

// DefaultBatcherConfig returns the batching defaults (32-item target
// batches, 100µs max-wait flush deadline).
func DefaultBatcherConfig() batcher.Config { return batcher.DefaultConfig() }

// Flight-recorder types (internal/flightrec): every telemetry-enabled
// runtime carries an always-on, lock-minimal flight recorder — per-domain
// rings of fixed-size binary events with explicit loss counters, reachable
// via Runtime.FlightRecorder(). Dumps trigger automatically on supervisor
// Dead/Restarting transitions and daemon crashes, on demand via
// Snapshot/TriggerDump, and over HTTP via laked's /flightrec.json endpoint;
// cmd/laketrace stitches a dump back into per-call cross-domain timelines
// (see DESIGN.md).
type (
	// FlightDump is one recorder snapshot, the crash artifact.
	FlightDump = flightrec.Dump
	// Span is one completed call with its stage timeline, folded from a
	// stitched dump (served on /spans.json).
	Span = flightrec.Span
)

// ReadFlightDump parses a flight-recorder dump (JSON, as FlightDump.JSON and
// /flightrec.json write it).
func ReadFlightDump(data []byte) (*FlightDump, error) { return flightrec.ReadDump(data) }

// HealthPlane is the live health surface (internal/healthplane): a
// read-side plane over one runtime that tails the flight recorder without
// disturbing the zero-allocation emit path, rolls tailed events plus
// telemetry-histogram deltas into multi-window per-stage latency
// percentiles and SRE-style error-budget burn rates over two fixed
// objectives, and captures anomaly-triggered black-box incident bundles
// (flight dump + telemetry snapshot + SLO state) on a burn-rate trip or on
// a drift demotion that a lifecycle manager on the runtime records. Attach
// one with NewHealthPlane and serve HealthPlane.Handler() on the routes in
// HealthPlanePaths — laked does.
type HealthPlane = healthplane.Plane

// HealthPlanePaths lists the HTTP routes HealthPlane.Handler serves.
var HealthPlanePaths = healthplane.Paths

// NewHealthPlane attaches the live health plane to rt.
func NewHealthPlane(rt *Runtime) *HealthPlane { return healthplane.Attach(rt) }

// StitchFlightDump rebuilds per-call cross-domain timelines from a dump.
func StitchFlightDump(d *FlightDump) *flightrec.StitchResult { return flightrec.Stitch(d) }

// Fault-injection and recovery types (internal/faults, internal/core
// supervision, internal/remoting resilience). Set Config.Faults to attach
// a deterministic fault plane to a runtime's command channel and daemon;
// resilience (retry + backoff + recovery) arms automatically, with the
// runtime's Supervisor as the recovery hook.
type (
	// FaultMix is the seeded fault configuration (drop/corrupt/duplicate/
	// delay rates plus daemon-crash probability).
	FaultMix = faults.Mix
	// FaultStats counts injected faults.
	FaultStats = faults.Stats
	// ResilienceStats counts client-side fault handling events.
	ResilienceStats = remoting.ResilienceStats
)

// ErrNotReady (CUDA_ERROR_SYSTEM_NOT_READY) is what remoted stubs return
// when lakeD is declared dead: route to the CPU fallback.
const ErrNotReady = cuda.ErrNotReady

// AdaptiveConfig parameterizes the Fig 3 contention/profitability policy
// (§4.2, §4.3; Runtime.NewAdaptivePolicy).
type AdaptiveConfig = policy.AdaptiveConfig

// Commonly used constants, re-exported for downstream callers.
const (
	// Success is the zero CUDA result.
	Success = cuda.Success
	// UseCPU and UseGPU are policy decisions.
	UseCPU = policy.UseCPU
	UseGPU = policy.UseGPU
	// NullTS retrieves/truncates the whole feature window.
	NullTS = features.NullTS
	// Netlink is the default command-channel cost row (the paper's choice,
	// §6).
	Netlink = boundary.Netlink
	// Ring is the cost row of the shm-resident descriptor rings
	// every runtime's frames cross: Config.Channel = Ring charges what the
	// rings themselves cost instead of a Table-2 mechanism.
	Ring = boundary.Ring
)

// VecAddKernel returns the demonstration vector-add device kernel.
func VecAddKernel() *cuda.Kernel { return cuda.VecAddKernel() }

// Figure3Program is the paper's Fig 3 policy as bytecode for
// Runtime.InstallVMPolicy: policy.Compile with exec_threshold and
// batch_threshold, the program Runtime.NewAdaptivePolicy runs.
func Figure3Program(execThreshold, batchThreshold int64) policy.Program {
	return policy.Compile(AdaptiveConfig{UtilThreshold: int(execThreshold), BatchThreshold: int(batchThreshold)})
}

// DefaultAdaptiveConfig returns the evaluation's policy constants.
func DefaultAdaptiveConfig() AdaptiveConfig { return policy.DefaultAdaptiveConfig() }

// Sharded multi-daemon fleet (internal/fleet): N independent lakeD
// runtimes behind a client-side router with sticky tenant placement,
// layered admission, and drain/kill shard retirement. Boot one with
// NewFleet; Config.NumShards, Config.RouterPolicy and Config.RouterSeed
// parameterize it (New ignores them — a single runtime is one shard).
type (
	// Fleet is a booted shard set plus its router.
	Fleet = fleet.Fleet
	// FleetConfig parameterizes NewFleet.
	FleetConfig = fleet.Config
	// FleetMigration reports one completed drain or kill.
	FleetMigration = fleet.Migration
	// FleetTenantConfig sets a tenant's fair-share weight and cap.
	FleetTenantConfig = fleet.TenantConfig
	// FleetPending is one in-flight routed request.
	FleetPending = fleet.Pending
)

// ShardDead is the state of a fleet shard that was drained or killed.
const ShardDead = fleet.Dead

// NewFleet boots cfg.Runtime.NumShards independent lakeD runtimes — one
// virtual clock each, shards model independent processes — behind the
// client-side router.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return fleet.New(cfg) }
