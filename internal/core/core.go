// Package core is LAKE's runtime (§4, Fig 2): the kernel-side API provider
// lakeLib, the bulk-data channel lakeShm over the descriptor-ring boundary,
// the user-side daemon lakeD that realizes the remoted driver API on the
// device pool, its supervisor, and the Fig 3 execution policies — one
// runtime a kernel subsystem boots once and programs against.
//
// Core is a leaf: it imports none of the layers built on it. Each of those
// attaches itself from its own package, taking the *Runtime and wiring
// itself to the runtime's clock, flight recorder, telemetry registry and
// Namer: batcher.New, lifecycle.New and healthplane.Attach. The in-kernel
// feature registry (internal/features) needs nothing from the runtime, so
// callers own their features.Store.
//
// Everything beneath the runtime is simulated hardware on a shared virtual
// clock (see DESIGN.md for the substitution map), but the components and the
// paths between them are the real ones: commands really serialize and cross
// a transport, lakeShm buffers really are shared memory, and policies really
// sample (remoted) NVML utilization.
package core

import (
	"fmt"
	goruntime "runtime"
	"strings"
	"time"

	"lakego/internal/boundary"
	"lakego/internal/cuda"
	"lakego/internal/faults"
	"lakego/internal/flightrec"
	"lakego/internal/gpu"
	"lakego/internal/gpupool"
	"lakego/internal/policy"
	"lakego/internal/remoting"
	"lakego/internal/shm"
	"lakego/internal/telemetry"
	"lakego/internal/vtime"
)

// BuildVersion is stamped into lake_build_info and health-plane responses;
// override at link time with `-ldflags "-X lakego/internal/core.BuildVersion=v..."`.
var BuildVersion = "dev"

// ringDepth is the boundary rings' depth per direction. A remoted call
// queues one command and its response; the slack absorbs the fault plane's
// duplicates and journal redeliveries.
const ringDepth = 64

// Config parameterizes a LAKE runtime.
type Config struct {
	// NumDevices sizes the device pool (default 1); every device is a
	// gpu.DefaultSpec() A100 model.
	NumDevices int
	// PoolPolicy selects context placement across the pool (default
	// round-robin; irrelevant with one device).
	PoolPolicy gpupool.Policy
	// PoolSeed seeds the pool's placement PRNG, keeping fixed-seed
	// multi-device runs bit-identical.
	PoolSeed int64
	// ShmBytes sizes the lakeShm region (default shm.DefaultRegionSize,
	// the artifact's cma=128M). It is address space, not memory: the region
	// is a mapping whose pages are committed as they are first touched
	// (heap memory under -race and off unix; see internal/shm).
	ShmBytes int64
	// Channel selects the cost-model row charged per command round trip:
	// a Table-2 mechanism (default Netlink, the paper's choice) or Ring,
	// the descriptor rings' own cost. Frames cross the ring transport
	// whichever row is charged.
	Channel boundary.Kind
	// Faults, when non-nil, attaches a fault plane with this mix to the
	// transport and daemon: frames may be dropped, corrupted, duplicated,
	// or delayed, and the daemon may crash while serving. Setting Faults
	// also arms client resilience (a faulty channel without retries would
	// just lose calls).
	Faults *faults.Mix
	// DisableTelemetry boots the runtime without the observability plane:
	// Telemetry() returns nil and every instrument call across the stack
	// is a no-op on a nil receiver. The zero value keeps telemetry on —
	// its hot-path cost is a handful of atomic adds (see DESIGN.md). The
	// flight recorder rides this switch: it is on whenever telemetry is on
	// (its per-event cost is one locked copy into a ring slot), and with
	// telemetry off every remoted command is untraced: its trace word on
	// the wire is 0.
	DisableTelemetry bool
	// FlightRecorderSize is the per-domain ring capacity in events (default
	// flightrec.DefaultRingSize = 4096).
	FlightRecorderSize int

	// NumShards, RouterPolicy and RouterSeed parameterize a sharded fleet
	// (internal/fleet): NumShards > 1 boots that many independent lakeD
	// runtimes behind a client-side router placing tenants by RouterPolicy
	// over a PRNG/ring seeded with RouterSeed. New and NewShard ignore all
	// three — a runtime is one shard; fleet.New consumes them.
	NumShards    int
	RouterPolicy gpupool.Policy
	RouterSeed   int64
}

// DefaultConfig mirrors the paper's deployment: Netlink command-channel
// cost, 128 MiB CMA-backed shared region, A100-class GPU.
func DefaultConfig() Config {
	return Config{
		ShmBytes: shm.DefaultRegionSize,
		Channel:  boundary.Netlink,
	}
}

// Runtime is one booted LAKE instance.
type Runtime struct {
	clock     *vtime.Clock
	pool      *gpupool.Pool
	device    *gpu.Device // pool device 0, the single-device view
	api       *cuda.API
	region    *shm.Region
	transport boundary.Channel
	daemon    *remoting.Daemon
	lib       *remoting.Lib
	shardLbl  string
	plane     *faults.Plane
	sup       *Supervisor
	tel       *telemetry.Registry
	rec       *flightrec.Recorder
}

// New boots a runtime: creates the device, maps the shared region into both
// domains, starts lakeD and wires lakeLib to it.
func New(cfg Config) (*Runtime, error) { return newRuntime(cfg, -1, nil) }

// NewShard boots shard ord of a fleet. The shard runs on a fresh clock of
// its own — shards model independent lakeD processes whose service
// timelines overlap in real time, so virtual time is per-shard and the
// fleet's elapsed time is the maximum over shards (the critical path). Its
// events land in root through a flightrec.WithShard view stamped with ord
// (root is nil with telemetry off), every metric name it registers carries
// a shard="<ord>" pair so shard series stay distinct in a merged
// exposition, and lakeLib's wire sequence numbers are namespaced by ord
// (remoting.Lib.SetShardTag) so shard journals merge without key collisions
// during migration.
func NewShard(cfg Config, ord int, root *flightrec.Recorder) (*Runtime, error) {
	return newRuntime(cfg, ord, root)
}

// newRuntime is New (ord < 0) and NewShard. A standalone runtime has no shard
// label and ordinal 0's sequence space, so its metric names and wire stay
// byte-identical to shard-free LAKE's.
func newRuntime(cfg Config, ord int, root *flightrec.Recorder) (*Runtime, error) {
	if cfg.ShmBytes <= 0 {
		cfg.ShmBytes = shm.DefaultRegionSize
	}
	clock := vtime.New()
	n := cfg.NumDevices
	if n <= 0 {
		n = 1
	}
	pool, err := gpupool.New(gpupool.Config{
		Devices: n,
		Policy:  cfg.PoolPolicy,
		Seed:    cfg.PoolSeed,
	}, clock)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	device := pool.Device(0)
	var place cuda.PlaceFunc
	if pool.Size() > 1 {
		place = pool.Place
	}
	api := cuda.NewMultiAPI(pool.Devices(), place)
	region, err := shm.NewRegion(cfg.ShmBytes)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// Bytes always cross the shm-resident descriptor rings (payload slots
	// carved from the region the two domains already share); cfg.Channel
	// only picks which mechanism's modeled cost each round trip is charged.
	tr, err := boundary.NewRingTransport(clock, region, ringDepth, boundary.DefaultSlotBytes)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	tr.SetCostModel(cfg.Channel)
	daemon := remoting.NewDaemon(api, region, tr)
	lib := remoting.NewLib(tr, daemon)
	rt := &Runtime{
		clock:     clock,
		pool:      pool,
		device:    device,
		api:       api,
		region:    region,
		transport: tr,
		daemon:    daemon,
		lib:       lib,
	}
	if ord >= 0 {
		lib.SetShardTag(ord)
		rt.shardLbl = fmt.Sprint(ord)
	}
	if !cfg.DisableTelemetry {
		// Each layer declares its own series; the runtime only supplies
		// the registry and the labeller. Done before any traffic, so the
		// hot paths read their instruments unlocked.
		rt.tel = telemetry.NewRegistry()
		tr.Instrument(rt.tel, rt.metricName)
		for i, dev := range pool.Devices() {
			// With one device (and no shard label) the metric names stay
			// exactly as they always were; a real pool labels each device's
			// series by ordinal, and a fleet shard adds its shard pair on top.
			dv := ""
			if pool.Size() > 1 {
				dv = fmt.Sprintf(`device="%d"`, i)
			}
			dev.Instrument(rt.tel, rt.Namer(dv))
		}
		lib.Instrument(rt.tel, rt.metricName)
		daemon.Instrument(rt.tel, rt.metricName)
		boot := time.Now()
		rt.tel.Gauge(rt.metricName("lake_build_info",
			`version="`+BuildVersion+`"`, `go_version="`+goruntime.Version()+`"`),
			"Build metadata carried in labels; the value is always 1.").Set(1)
		rt.tel.GaugeFunc(rt.metricName("lake_uptime_vns"),
			"Virtual nanoseconds elapsed on this runtime's clock.",
			func() int64 { return int64(clock.Now()) })
		rt.tel.GaugeFunc(rt.metricName("lake_uptime_seconds"),
			"Wall-clock seconds since the runtime booted.",
			func() int64 { return int64(time.Since(boot) / time.Second) })
		if root != nil {
			rt.rec = root.WithShard(ord, clock)
		} else {
			rt.rec = flightrec.New(clock, cfg.FlightRecorderSize)
		}
		rt.rec.SetFramePeeker(remoting.PeekFrame)
		rt.rec.SetEnabled(true)
		tr.SetFlightRecorder(rt.rec)
		lib.SetFlightRecorder(rt.rec)
		daemon.SetFlightRecorder(rt.rec)
		pool.SetFlightRecorder(rt.rec)
	}
	if cfg.Faults != nil {
		rt.plane = faults.NewPlane(*cfg.Faults, clock)
		tr.InjectFaults(rt.plane)
		daemon.InjectFaults(rt.plane)
		rt.sup = NewSupervisor(clock, daemon)
		rt.sup.SetFlightRecorder(rt.rec)
		rt.sup.Instrument(rt.tel, rt.metricName)
		lib.EnableResilience(rt.sup)
	}
	if r := lib.CuInit(); r != cuda.Success {
		return nil, fmt.Errorf("core: remote cuInit failed: %s", r)
	}
	return rt, nil
}

// metricName composes one series name from its family and label pairs,
// dropping empty pairs and appending the runtime's shard pair when
// configured. It is the telemetry.Namer every layer declares its series
// through: ad-hoc `name+lbl` concatenation is what let per-shard pooled
// series collide in a merged fleet exposition (two shards' `{device="0"}`
// were the same string).
func (r *Runtime) metricName(family string, pairs ...string) string {
	var parts []string
	for _, p := range pairs {
		if p != "" {
			parts = append(parts, p)
		}
	}
	if r.shardLbl != "" {
		parts = append(parts, `shard="`+r.shardLbl+`"`)
	}
	if len(parts) == 0 {
		return family
	}
	return family + "{" + strings.Join(parts, ",") + "}"
}

// Namer returns the telemetry.Namer a layer declares its series through:
// metricName with the given pairs (a device or model label, say) after the
// series' own and ahead of the runtime-wide shard pair.
func (r *Runtime) Namer(pairs ...string) telemetry.Namer {
	return func(family string, own ...string) string {
		return r.metricName(family, append(own, pairs...)...)
	}
}

// ItemLatency returns the per-item execution latency series of the GPU and
// CPU routes, shared by every layer that runs inference on this runtime
// (batcher flushes, offload runs) and read by the health plane's
// gpu_item/cpu_item stages. Both are nil without telemetry.
func (r *Runtime) ItemLatency() (gpu, cpu *telemetry.Histogram) {
	gpu = r.tel.Histogram(r.metricName(telemetry.MetricGPUItemLatency), "Observed per-item GPU-path latency (virtual ns).", telemetry.DefaultLatencyBuckets())
	cpu = r.tel.Histogram(r.metricName(telemetry.MetricCPUItemLatency), "Observed per-item CPU-path latency (virtual ns).", telemetry.DefaultLatencyBuckets())
	return gpu, cpu
}

// Telemetry returns the runtime's metrics registry, or nil when the
// runtime was booted with Config.DisableTelemetry (nil is safe: every
// instrument it would hand out degrades to a no-op).
func (r *Runtime) Telemetry() *telemetry.Registry { return r.tel }

// FlightRecorder returns the always-on flight recorder, or nil when the
// runtime was booted with DisableTelemetry (nil is safe: every recorder
// method degrades to a no-op).
func (r *Runtime) FlightRecorder() *flightrec.Recorder { return r.rec }

// Clock returns the runtime's virtual clock.
func (r *Runtime) Clock() *vtime.Clock { return r.clock }

// Device returns the accelerator model (for experiment instrumentation;
// kernel-side code should only touch it through Lib). On a multi-device
// runtime this is pool device 0.
func (r *Runtime) Device() *gpu.Device { return r.device }

// Pool returns the device pool (size 1 on a default runtime).
func (r *Runtime) Pool() *gpupool.Pool { return r.pool }

// Lib returns lakeLib, the kernel-side accelerator API stubs.
func (r *Runtime) Lib() *remoting.Lib { return r.lib }

// Daemon returns lakeD, for registering high-level APIs (§4.4).
func (r *Runtime) Daemon() *remoting.Daemon { return r.daemon }

// Region returns the lakeShm shared region.
func (r *Runtime) Region() *shm.Region { return r.region }

// Transport returns the boundary channel the runtime was booted on;
// type-assert to *boundary.RingTransport for doorbell stats.
func (r *Runtime) Transport() boundary.Channel { return r.transport }

// FaultPlane returns the attached fault-injection plane, or nil when the
// runtime was booted without Config.Faults.
func (r *Runtime) FaultPlane() *faults.Plane { return r.plane }

// Supervisor returns the lakeD supervisor, or nil when neither faults nor
// resilience were configured.
func (r *Runtime) Supervisor() *Supervisor { return r.sup }

// RegisterKernel installs a device kernel into the user-domain vendor
// library so remoted cuModuleGetFunction can resolve it.
func (r *Runtime) RegisterKernel(k *cuda.Kernel) { r.api.RegisterKernel(k) }

// NewAdaptivePolicy builds the Fig 3 policy, policy.Compile(cfg), whose
// utilization source is the LAKE-remoted NVML query, exactly as the paper's
// pseudocode does.
func (r *Runtime) NewAdaptivePolicy(cfg policy.AdaptiveConfig) *policy.Adaptive {
	p, err := r.InstallVMPolicy(policy.Compile(cfg))
	if err != nil {
		panic(err) // Compile's output always verifies
	}
	return p
}

// InstallVMPolicy verifies a bytecode policy against the Fig 3 helper set
// (utilization from remoted NVML, averaged over the last 8 queries; see
// policy.Load) and returns it ready for Decide calls, with the batch size
// passed in r1.
func (r *Runtime) InstallVMPolicy(prog policy.Program) (*policy.Adaptive, error) {
	return policy.Load(prog, r.clock, func() int {
		g, _, res := r.lib.NvmlGetUtilization()
		if res != cuda.Success {
			return 100 // treat a failed query as contended: stay on CPU
		}
		return g
	})
}

// Stats summarizes runtime activity for experiment reports.
type Stats struct {
	RemotedCalls   int64
	ChannelTime    time.Duration
	DaemonHandled  int64
	KernelLaunches int64
	ShmUsed        int64
	VirtualTime    time.Duration
	// Fault/recovery counters (zero on a runtime without faults).
	DaemonExecuted    int64
	DaemonRedelivered int64
	DaemonRestarts    int64
}

// Stats snapshots the runtime counters.
func (r *Runtime) Stats() Stats {
	calls, channel := r.lib.Stats()
	var launches int64
	for _, dev := range r.pool.Devices() {
		launches += dev.Launches()
	}
	return Stats{
		RemotedCalls:      calls,
		ChannelTime:       channel,
		DaemonHandled:     r.daemon.Handled(),
		KernelLaunches:    launches,
		ShmUsed:           r.region.Used(),
		VirtualTime:       r.clock.Now(),
		DaemonExecuted:    r.daemon.Executed(),
		DaemonRedelivered: r.daemon.Redelivered(),
		DaemonRestarts:    r.daemon.Restarts(),
	}
}

// Close shuts the runtime down. It leaves the lakeShm region mapped: the
// region goes with the runtime's last reference (and the last Buffer or
// transport carved from it), when the collector finds it unreachable.
func (r *Runtime) Close() { r.transport.Close() }
