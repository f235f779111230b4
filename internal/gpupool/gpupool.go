// Package gpupool manages a pool of N modeled accelerators behind pluggable
// placement policies.
//
// LAKE's evaluation runs on a single A100, but the architecture it argues
// for — many kernel subsystems sharing accelerator capacity through one
// trusted daemon — generalizes directly to multi-device hosts. The pool is
// that generalization: lakeD owns every device, contexts bind to a
// pool-selected device at creation, and batched flushes are steered
// per-launch to the least-contended device. Placement reuses the paper's
// contention machinery (NVML-style utilization sampling, Fig 3 and Fig 13)
// per device. One engine, Placer, implements every policy; the fleet router
// places tenants on shards through the same engine.
//
// Determinism: every placement decision is a pure function of device state
// on the shared virtual clock plus draws from a seeded PRNG, so a
// fixed-seed multi-device run is bit-identical across executions.
package gpupool

import (
	"fmt"
	"sync"

	"lakego/internal/flightrec"
	"lakego/internal/gpu"
	"lakego/internal/nvml"
	"lakego/internal/vtime"
)

// Policy selects how the pool places work on devices.
type Policy int

const (
	// RoundRobin rotates context placement across devices, ignoring load.
	RoundRobin Policy = iota
	// LeastOutstanding picks the device with the smallest queued backlog
	// (its BusyUntil horizon relative to now).
	LeastOutstanding
	// ContentionAware samples per-device NVML utilization and picks the
	// least-utilized device (Fig 3: contended devices stop being
	// profitable), breaking ties by smaller backlog, then with the seeded
	// PRNG.
	ContentionAware
	// ConsistentHash places each client on the member owning its name on a
	// seeded hash ring (NewRing), so placement is sticky under membership
	// change. Used by the fleet router; for per-flush device placement it
	// degenerates to load-blind and is rarely what a pool wants.
	ConsistentHash
)

// String returns the flag-form name of the policy.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastOutstanding:
		return "least-outstanding"
	case ContentionAware:
		return "contention-aware"
	case ConsistentHash:
		return "consistent-hash"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy maps a flag value to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "round-robin", "rr":
		return RoundRobin, nil
	case "least-outstanding", "lo":
		return LeastOutstanding, nil
	case "contention-aware", "ca":
		return ContentionAware, nil
	case "consistent-hash", "ch":
		return ConsistentHash, nil
	default:
		return 0, fmt.Errorf("gpupool: unknown policy %q (want round-robin, least-outstanding, contention-aware or consistent-hash)", s)
	}
}

// utilWindow is the trailing window placement samples per device.
const utilWindow = nvml.SamplingWindow

// Config parameterizes a pool.
type Config struct {
	// Devices is the pool size; every device is a gpu.DefaultSpec() model.
	// Must be at least one.
	Devices int
	// Policy selects placement (default RoundRobin, the zero value).
	Policy Policy
	// Seed initializes the PRNG used for placement tie-breaks.
	Seed int64
}

// DeviceAccounting is one device's per-launch/per-copy counters, the feed
// for aggregated NVML-style accounting queries.
type DeviceAccounting struct {
	Ordinal   int
	Launches  int64
	Copies    int64
	CopyBytes int64
}

// Pool owns N devices on a shared virtual clock and answers placement
// queries. All methods are safe for concurrent use; placement draws are
// serialized under the pool mutex so fixed-seed runs stay reproducible.
type Pool struct {
	devs   []*gpu.Device
	clock  *vtime.Clock
	policy Policy

	mu     sync.Mutex
	placer Placer

	// rec receives gpu-domain placement events; nil-safe.
	rec *flightrec.Recorder
}

// SetFlightRecorder attaches the flight recorder to the pool and all of its
// devices. Must be called during runtime construction, before any traffic.
func (p *Pool) SetFlightRecorder(rec *flightrec.Recorder) {
	p.rec = rec
	for _, d := range p.devs {
		d.SetFlightRecorder(rec)
	}
}

// New builds the pool, creating device i with ordinal i (the ordinal is
// stamped into every DevPtr the device hands out).
func New(cfg Config, clock *vtime.Clock) (*Pool, error) {
	if cfg.Devices < 1 {
		return nil, fmt.Errorf("gpupool: at least one device required")
	}
	if cfg.Devices > gpu.MaxDevices {
		return nil, fmt.Errorf("gpupool: %d devices exceeds limit %d", cfg.Devices, gpu.MaxDevices)
	}
	p := &Pool{
		clock:  clock,
		policy: cfg.Policy,
		placer: NewPlacer(cfg.Policy, cfg.Devices, cfg.Seed),
	}
	for i := 0; i < cfg.Devices; i++ {
		p.devs = append(p.devs, gpu.NewIndexed(gpu.DefaultSpec(), clock, i))
	}
	return p, nil
}

// Size returns the number of devices.
func (p *Pool) Size() int { return len(p.devs) }

// Policy returns the configured placement policy.
func (p *Pool) Policy() Policy { return p.policy }

// Device returns device ord; it panics on an out-of-range ordinal, like
// indexing a slice.
func (p *Pool) Device(ord int) *gpu.Device { return p.devs[ord] }

// Devices returns the pool's devices in ordinal order. Callers must not
// mutate the slice.
func (p *Pool) Devices() []*gpu.Device { return p.devs }

// Place picks a device ordinal for a new context owned by client,
// according to the configured policy.
func (p *Pool) Place(client string) int {
	ord := p.pick(p.policy, client)
	p.rec.Emit(flightrec.DomainGPU, flightrec.EvPlace,
		p.rec.ExecTrace(), 0, ord, uint64(p.policy), 0, 0)
	return ord
}

// PlaceFlush picks the device for one batched flush: the least-utilized
// device, breaking utilization ties by smaller backlog and then by a seeded
// PRNG draw. Flush placement is load-driven regardless of the context
// policy — a flush is a single launch, so steering it to spare capacity is
// always profitable.
func (p *Pool) PlaceFlush() int {
	ord := p.pick(ContentionAware, "")
	p.rec.Emit(flightrec.DomainGPU, flightrec.EvPlace,
		p.rec.ExecTrace(), 0, ord, uint64(p.policy), 1, 0)
	return ord
}

// pick runs the placer over every device under the pool mutex. A device's
// load is its NVML utilization over utilWindow and its backlog past one
// reading of now.
func (p *Pool) pick(policy Policy, key string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.clock.Now()
	return p.placer.Pick(policy, key, len(p.devs), nil, func(ord int) Load {
		d := p.devs[ord]
		return Load{Util: d.Utilization(utilWindow, ""), Backlog: int64(max(d.BusyUntil()-now, 0))}
	})
}

// DeviceRates reports one device's NVML-style utilization.
func (p *Pool) DeviceRates(ord int) nvml.Utilization {
	return nvml.DeviceGetUtilizationRates(p.devs[ord])
}

// AggregateRates folds all devices into one pool-wide NVML-style reading
// (mean GPU busy percentage; memory as total used over total capacity).
func (p *Pool) AggregateRates() nvml.Utilization {
	return nvml.AggregateUtilizationRates(p.devs)
}

// Accounting snapshots per-device launch and copy counters in ordinal
// order.
func (p *Pool) Accounting() []DeviceAccounting {
	out := make([]DeviceAccounting, len(p.devs))
	for i, d := range p.devs {
		copies, bytes := d.Copies()
		out[i] = DeviceAccounting{
			Ordinal:   i,
			Launches:  d.Launches(),
			Copies:    copies,
			CopyBytes: bytes,
		}
	}
	return out
}
