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
	"lakego/internal/gpu"
	"lakego/internal/gpupool"
	"lakego/internal/healthplane"
	"lakego/internal/lifecycle"
	"lakego/internal/loadgen"
	"lakego/internal/policy"
	"lakego/internal/remoting"
	"lakego/internal/shm"
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
	// Lib is lakeLib, the kernel-side accelerator API stubs.
	Lib = remoting.Lib
	// Daemon is lakeD, the user-space API-realizing daemon.
	Daemon = remoting.Daemon
	// HighLevelHandler realizes one custom high-level API in lakeD (§4.4).
	HighLevelHandler = remoting.HighLevelHandler
	// Region is the lakeShm shared-memory region.
	Region = shm.Region
	// Buffer is one zero-copy allocation within a Region.
	Buffer = shm.Buffer
	// Kernel is a device function launchable via the remoted driver API.
	Kernel = cuda.Kernel
	// Result is a CUDA-style status code returned by remoted APIs.
	Result = cuda.Result
	// DevPtr is an opaque device memory address.
	DevPtr = gpu.DevPtr
	// GPUSpec describes the modeled accelerator hardware.
	GPUSpec = gpu.Spec
	// ChannelKind selects the kernel<->user command channel cost model.
	ChannelKind = boundary.Kind
)

// Feature registry types (§5, Table 1).
type (
	// FeatureStore holds the process's registries and models.
	FeatureStore = features.Store
	// FeatureRegistry is one named registry.
	FeatureRegistry = features.Registry
	// FeatureSchema describes a registry's vectors.
	FeatureSchema = features.Schema
	// FeatureField is one schema entry: key -> <size, entries>.
	FeatureField = features.Field
	// FeatureVector is one committed vector.
	FeatureVector = features.Vector
	// Classifier runs inference over a batch of vectors.
	Classifier = features.Classifier
)

// Cross-client batching subsystem types (internal/batcher): clients obtain
// a Batcher from Runtime.NewBatcher, register models, and submit through
// per-client handles; independent requests coalesce into batched GPU
// launches inside lakeD.
type (
	// Batcher aggregates concurrent inference requests per model.
	Batcher = batcher.Batcher
	// BatcherConfig parameterizes Runtime.NewBatcher.
	BatcherConfig = batcher.Config
	// BatcherModel describes one batchable model.
	BatcherModel = batcher.ModelConfig
	// BatcherClient is one submitter's fair-admission handle.
	BatcherClient = batcher.Client
	// BatcherPending is one in-flight batched request.
	BatcherPending = batcher.Pending
	// BatcherStats snapshots batching activity.
	BatcherStats = batcher.Stats
)

// ErrBackpressure is the batcher's reject-with-retry result.
var ErrBackpressure = batcher.ErrBackpressure

// Multi-GPU device pool types (internal/gpupool): set Config.NumDevices (or
// Config.DeviceSpecs for a heterogeneous pool) and Config.PoolPolicy to boot
// a runtime over several modeled accelerators; placement draws only from the
// pool's seeded PRNG and the virtual clock, so fixed-seed multi-device runs
// are bit-identical.
type (
	// GPUPool is the runtime's device pool, reachable via Runtime.Pool().
	GPUPool = gpupool.Pool
	// PoolPolicy selects the placement policy for new contexts.
	PoolPolicy = gpupool.Policy
	// PoolConfig parameterizes a standalone gpupool.New.
	PoolConfig = gpupool.Config
	// DeviceAccounting is one device's per-ordinal copy/launch counters.
	DeviceAccounting = gpupool.DeviceAccounting
)

// Placement policies for PoolPolicy.
const (
	// PoolRoundRobin cycles context placement across devices.
	PoolRoundRobin = gpupool.RoundRobin
	// PoolLeastOutstanding places on the device with the smallest backlog.
	PoolLeastOutstanding = gpupool.LeastOutstanding
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

// Observability plane types (internal/telemetry): every runtime carries a
// metrics registry (disable with Config.DisableTelemetry) exposed through
// Runtime.Telemetry(). Instruments are allocation-free on the hot
// path, and every method is a no-op on a nil receiver, so instrumented code
// never guards for a disabled plane.
type (
	// TelemetryRegistry is the per-runtime metric registry.
	TelemetryRegistry = telemetry.Registry
	// TelemetrySnapshot is a point-in-time JSON-friendly metrics dump.
	TelemetrySnapshot = telemetry.Snapshot
	// Counter is a monotonically increasing metric.
	Counter = telemetry.Counter
	// Gauge is a settable level metric.
	Gauge = telemetry.Gauge
	// Histogram is a fixed-bucket latency/size distribution.
	Histogram = telemetry.Histogram
)

// DefaultBatcherConfig returns the batching defaults (32-item target
// batches, 100µs max-wait flush deadline).
func DefaultBatcherConfig() BatcherConfig { return batcher.DefaultConfig() }

// Online model-lifecycle types (internal/lifecycle): a versioned registry
// of content-hashed immutable model snapshots whose serving slot is an
// atomic pointer flip, an in-daemon online trainer fed by a bounded
// feedback channel of observed outcomes, and a drift detector that
// demotes a degraded version (or falls back to the CPU/heuristic path).
// Boot one per model with Runtime.NewLifecycle.
type (
	// ModelManager runs one model's lifecycle.
	ModelManager = lifecycle.Manager
	// ModelLifecycleConfig parameterizes Runtime.NewLifecycle.
	ModelLifecycleConfig = lifecycle.Config
	// ModelRegistry is the versioned snapshot store with the serving slot.
	ModelRegistry = lifecycle.Registry
	// ModelVersion is one immutable registered snapshot.
	ModelVersion = lifecycle.Version
	// ModelMeta is a version's provenance.
	ModelMeta = lifecycle.Meta
	// ModelOutcome is one observed ground-truth feedback record.
	ModelOutcome = lifecycle.Outcome
	// ModelStats snapshots lifecycle activity.
	ModelStats = lifecycle.Stats
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
// Snapshot/TriggerDump, and over HTTP via laked's /flightrec.dump and
// /flightrec.json endpoints; cmd/laketrace stitches a dump back into
// per-call cross-domain timelines (see DESIGN.md).
type (
	// FlightRecorder is the per-runtime event recorder.
	FlightRecorder = flightrec.Recorder
	// FlightDump is one recorder snapshot, the crash artifact.
	FlightDump = flightrec.Dump
	// FlightEvent is one fixed-size recorded event.
	FlightEvent = flightrec.Event
	// FlightTimeline is one remoted call stitched across domains.
	FlightTimeline = flightrec.Timeline
	// FlightStitch is the reconstruction of a dump.
	FlightStitch = flightrec.StitchResult
	// Span is one completed call with its stage timeline, folded from a
	// stitched dump (served on /spans.json).
	Span = flightrec.Span
)

// ReadFlightDump parses a flight-recorder dump from either its binary or
// JSON encoding.
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
	// Incident is one anomaly-triggered black-box capture.
	Incident = healthplane.Incident
	// ShardHealth is one shard's liveness as /readyz reports it.
	ShardHealth = healthplane.ShardHealth
	// TailCursor is an opaque flight-recorder tail position; the zero
	// value starts from the oldest retained events.
	TailCursor = flightrec.TailCursor
)

// HealthPlanePaths lists the HTTP routes HealthPlane.Handler serves.
var HealthPlanePaths = healthplane.Paths

// DefaultSLOObjectives returns the default call/boundary objectives.
func DefaultSLOObjectives() []SLOObjective { return healthplane.DefaultObjectives() }

// ParseTailCursor parses a cursor string a previous tail returned.
func ParseTailCursor(s string) (TailCursor, error) { return flightrec.ParseTailCursor(s) }

// StitchFlightDump rebuilds per-call cross-domain timelines from a dump.
func StitchFlightDump(d *FlightDump) *FlightStitch { return flightrec.Stitch(d) }

// Fault-injection and recovery types (internal/faults, internal/core
// supervision, internal/remoting resilience). Set Config.Faults to attach
// a deterministic fault plane to a runtime's command channel and daemon;
// resilience (retry + backoff + recovery) arms automatically, with the
// runtime's Supervisor as the recovery hook.
type (
	// FaultMix is the seeded fault configuration (drop/corrupt/duplicate/
	// delay rates plus daemon-crash probability).
	FaultMix = faults.Mix
	// FaultPlane is an attached fault injector; query Stats for what it did.
	FaultPlane = faults.Plane
	// FaultStats counts injected faults.
	FaultStats = faults.Stats
	// Supervisor watches lakeD, restarts it on crash, and re-attaches state.
	Supervisor = core.Supervisor
	// SupervisorConfig parameterizes supervision thresholds.
	SupervisorConfig = core.SupervisorConfig
	// DaemonState is the supervisor's recovery state machine state.
	DaemonState = core.DaemonState
	// Resilience arms lakeLib's deadlines, retries and recovery hook.
	Resilience = remoting.Resilience
	// RetryPolicy is the exponential-backoff schedule with deterministic
	// jitter.
	RetryPolicy = remoting.RetryPolicy
	// ResilienceStats counts client-side fault handling events.
	ResilienceStats = remoting.ResilienceStats
)

// ErrNotReady (CUDA_ERROR_SYSTEM_NOT_READY) is what remoted stubs return
// when lakeD is declared dead: route to the CPU fallback.
const ErrNotReady = cuda.ErrNotReady

// DefaultResilience returns the default client robustness configuration.
func DefaultResilience() Resilience { return remoting.DefaultResilience() }

// HealthGated wraps a policy so offload is only considered while healthy()
// holds — e.g. policy.HealthGated(adaptive.Decide, rt.Lib().Healthy).
func HealthGated(inner PolicyFunc, healthy func() bool) PolicyFunc {
	return policy.HealthGated(inner, healthy)
}

// Policy types (§4.2, §4.3).
type (
	// PolicyFunc decides CPU vs accelerator for a batch.
	PolicyFunc = policy.Func
	// PolicyDecision is a policy outcome.
	PolicyDecision = policy.Decision
	// AdaptivePolicy is the Fig 3 contention/profitability policy.
	AdaptivePolicy = policy.Adaptive
	// AdaptiveConfig parameterizes an AdaptivePolicy.
	AdaptiveConfig = policy.AdaptiveConfig
	// PolicyProgram is verified eBPF-style policy bytecode.
	PolicyProgram = policy.Program
)

// Commonly used constants, re-exported for downstream callers.
const (
	// Success is the zero CUDA result.
	Success = cuda.Success
	// UseCPU and UseGPU are policy decisions.
	UseCPU = policy.UseCPU
	UseGPU = policy.UseGPU
	// ArchCPU and ArchGPU tag registered classifiers.
	ArchCPU = features.ArchCPU
	ArchGPU = features.ArchGPU
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
func VecAddKernel() *Kernel { return cuda.VecAddKernel() }

// Figure3Program compiles the paper's Fig 3 policy to bytecode for
// Runtime.InstallVMPolicy.
func Figure3Program(execThreshold, batchThreshold int64) PolicyProgram {
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
	// FleetShard is one lakeD runtime under fleet management.
	FleetShard = fleet.Shard
	// FleetShardState is the router's view of a shard (Active, Draining,
	// Dead).
	FleetShardState = fleet.ShardState
	// FleetStats aggregates per-shard stats plus router counters.
	FleetStats = fleet.Stats
	// FleetMigration reports one completed drain or kill.
	FleetMigration = fleet.Migration
	// FleetTenant is one routed client identity.
	FleetTenant = fleet.Tenant
	// FleetTenantConfig sets a tenant's fair-share weight and cap.
	FleetTenantConfig = fleet.TenantConfig
	// FleetClient submits through the router; the fleet analogue of
	// BatcherClient.
	FleetClient = fleet.Client
	// FleetPending is one in-flight routed request.
	FleetPending = fleet.Pending
)

// Fleet shard states.
const (
	// ShardActive accepts placements and traffic.
	ShardActive = fleet.Active
	// ShardDraining is excluded from placement while in-flight work
	// quiesces.
	ShardDraining = fleet.Draining
	// ShardDead is migrated away and gone.
	ShardDead = fleet.Dead
)

// NewFleet boots cfg.Runtime.NumShards independent lakeD runtimes — one
// virtual clock each, shards model independent processes — behind the
// client-side router.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return fleet.New(cfg) }

// Open-loop macro load generation (internal/loadgen): trace-driven replay
// of a million-client churning population against a fleet on the virtual
// clock, with per-tenant SLO attainment and knee-point location. The
// cmd/lakeload CLI wraps the same entry points.
type (
	// LoadScenario declares one macro workload: population, window,
	// tenant classes, rate shaping and fleet sizing.
	LoadScenario = loadgen.Scenario
	// LoadTenantClass is one scenario tenant: a mix, a Table 4 arrival
	// profile, a population share and SLO budgets.
	LoadTenantClass = loadgen.TenantClass
	// LoadResult is one replay's outcome: per-class attainment, stage
	// means and fleet counters.
	LoadResult = loadgen.Result
	// LoadSweepResult is a knee sweep over rate multipliers.
	LoadSweepResult = loadgen.SweepResult
)

// LoadScenarios returns the builtin macro scenarios (smoke, million,
// storm).
func LoadScenarios() []*LoadScenario { return loadgen.Builtins() }

// RunLoad replays a scenario to completion and reports results; fixed
// seeds replay byte-identically (see LoadResult.BenchJSON via
// loadgen.BenchJSON).
func RunLoad(s *LoadScenario) (*LoadResult, error) { return loadgen.Run(s) }

// RunLoadSweep replays a scenario at each rate multiplier and locates the
// knee: the highest rung that still meets every SLO budget.
func RunLoadSweep(s *LoadScenario, multipliers []float64) (*LoadSweepResult, error) {
	return loadgen.Sweep(s, multipliers)
}
