// Package lake is the public API of LAKE, a framework for exposing
// ML-focused hardware acceleration in kernel space, reproduced in Go from
// "Towards a Machine Learning-Assisted Kernel with LAKE" (ASPLOS 2023).
//
// A Runtime wires together the three components of Fig 2 — lakeLib (the
// kernel-side API provider), lakeShm (the zero-copy bulk-data channel) and
// lakeD (the user-space daemon realizing accelerator APIs) — plus the
// Fig 3 execution-policy framework and the §5 in-kernel feature registry.
// Because Go cannot run in kernel space, the kernel/user boundary and the
// accelerator are high-fidelity simulations on a virtual clock; every
// protocol layer above them (command serialization, shared-memory handoff,
// policy decisions, feature capture) is the real code path.
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
	"lakego/internal/lifecycle"
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

// BatcherModel describes one batchable model of the cross-client batching
// subsystem (internal/batcher): clients obtain a Batcher from
// Runtime.NewBatcher, register models, and submit through per-client
// handles; independent requests coalesce into batched GPU launches inside
// lakeD.
type BatcherModel = batcher.ModelConfig

// PoolPolicy selects the placement policy for new contexts on a multi-GPU
// device pool (internal/gpupool): set Config.NumDevices (or
// Config.DeviceSpecs for a heterogeneous pool) and Config.PoolPolicy to boot
// a runtime over several modeled accelerators; placement draws only from the
// pool's seeded PRNG and the virtual clock, so fixed-seed multi-device runs
// are bit-identical.
type PoolPolicy = gpupool.Policy

// Placement policies for PoolPolicy.
const (
	// PoolRoundRobin cycles context placement across devices.
	PoolRoundRobin = gpupool.RoundRobin
	// PoolConsistentHash places each client on the member owning its name
	// on a seeded hash ring; the fleet router reuses it for tenant->shard
	// placement.
	PoolConsistentHash = gpupool.ConsistentHash
	// PoolContentionAware places on the least NVML-utilized device,
	// breaking ties by backlog then seeded PRNG (Fig 3 per device).
	PoolContentionAware = gpupool.ContentionAware
)

// ParsePoolPolicy parses a -pool-policy flag value ("round-robin",
// "least-outstanding", "contention-aware", or the short forms rr/lo/ca).
func ParsePoolPolicy(s string) (PoolPolicy, error) { return gpupool.ParsePolicy(s) }

// TelemetrySnapshot is a point-in-time JSON-friendly dump of the
// observability plane (internal/telemetry): every runtime carries a metrics
// registry (disable with Config.DisableTelemetry) exposed through
// Runtime.Telemetry().
type TelemetrySnapshot = telemetry.Snapshot

// DefaultBatcherConfig returns the batching defaults (32-item target
// batches, 100µs max-wait flush deadline).
func DefaultBatcherConfig() batcher.Config { return batcher.DefaultConfig() }

// Online model-lifecycle types (internal/lifecycle): a versioned registry
// of content-hashed immutable model snapshots whose serving slot is an
// atomic pointer flip, an in-daemon online trainer fed by a bounded
// feedback channel of observed outcomes, and a drift detector that
// demotes a degraded version (or falls back to the CPU/heuristic path).
// Boot one per model with Runtime.NewLifecycle.
type (
	// ModelLifecycleConfig parameterizes Runtime.NewLifecycle.
	ModelLifecycleConfig = lifecycle.Config
	// ModelOutcome is one observed ground-truth feedback record.
	ModelOutcome = lifecycle.Outcome
)

// DefaultLifecycleConfig returns the shipping lifecycle parameters for a
// model label.
func DefaultLifecycleConfig(model string) ModelLifecycleConfig {
	return lifecycle.DefaultConfig(model)
}

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

// Live health plane types (internal/healthplane): a read-side surface that
// tails the flight recorder without disturbing the zero-allocation emit
// path, rolls tailed events plus telemetry-histogram deltas into
// multi-window per-stage latency percentiles and SRE-style error-budget
// burn rates, and captures anomaly-triggered black-box incident bundles
// (flight dump + telemetry snapshot + model registry state). Boot one with
// Runtime.NewHealthPlane or Fleet.NewHealthPlane and serve
// HealthPlane.Handler() on the routes in HealthPlanePaths — laked does.
type (
	// HealthPlane is the live health surface for a runtime or fleet.
	HealthPlane = healthplane.Plane
	// HealthPlaneConfig tunes tick granularity, burn-rate windows and
	// thresholds, objectives, and the incident-ring bound.
	HealthPlaneConfig = healthplane.Config
	// SLOObjective is one latency objective the burn engine tracks.
	SLOObjective = healthplane.Objective
	// SLOSnapshot is the /slo.json payload.
	SLOSnapshot = healthplane.SLOSnapshot
)

// HealthPlanePaths lists the HTTP routes HealthPlane.Handler serves.
var HealthPlanePaths = healthplane.Paths

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
	// SupervisorConfig parameterizes supervision thresholds.
	SupervisorConfig = core.SupervisorConfig
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
	// Ring is the cost row of the shm-resident lock-free descriptor rings
	// every runtime's frames cross: Config.Channel = Ring charges what the
	// rings themselves cost instead of a Table-2 mechanism.
	Ring = boundary.Ring
)

// VecAddKernel returns the demonstration vector-add device kernel.
func VecAddKernel() *cuda.Kernel { return cuda.VecAddKernel() }

// Figure3Program compiles the paper's Fig 3 policy to bytecode for
// Runtime.InstallVMPolicy.
func Figure3Program(execThreshold, batchThreshold int64) policy.Program {
	return policy.Figure3Program(execThreshold, batchThreshold)
}

// DefaultAdaptiveConfig returns the evaluation's policy constants.
func DefaultAdaptiveConfig() AdaptiveConfig { return policy.DefaultAdaptiveConfig() }

// Sharded multi-daemon fleet (internal/fleet): N independent lakeD
// runtimes behind a client-side router with sticky tenant placement,
// layered admission, and drain/kill journal migration. Boot one with
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

// ShardDead is the state of a fleet shard that was migrated away and is
// gone.
const ShardDead = fleet.Dead

// NewFleet boots cfg.Runtime.NumShards independent lakeD runtimes — one
// virtual clock each, shards model independent processes — behind the
// client-side router.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return fleet.New(cfg) }
