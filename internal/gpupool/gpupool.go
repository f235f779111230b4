// Package gpupool manages a pool of N modeled accelerators behind pluggable
// placement policies.
//
// LAKE's evaluation runs on a single A100, but the architecture it argues
// for — many kernel subsystems sharing accelerator capacity through one
// trusted daemon — generalizes directly to multi-device hosts. The pool is
// that generalization: lakeD owns every device, contexts bind to a
// pool-selected device at creation, and batched flushes are steered
// per-launch to the least-contended eligible device. Placement reuses the
// paper's contention machinery (NVML-style utilization sampling plus the
// Fig 3 profitability signal, here as a utilization threshold) per device.
//
// Determinism: every placement decision is a pure function of device state
// on the shared virtual clock plus draws from a seeded PRNG, so a
// fixed-seed multi-device run is bit-identical across executions.
package gpupool

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

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
	// ContentionAware samples per-device NVML utilization and prefers
	// devices below the profitability threshold (Fig 3: contended devices
	// stop being profitable), breaking ties with the seeded PRNG.
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
	// Specs gives one hardware model per device; heterogeneous pools are
	// allowed. Must be non-empty.
	Specs []gpu.Spec
	// Policy selects placement (default RoundRobin, the zero value).
	Policy Policy
	// Seed initializes the PRNG used for placement tie-breaks.
	Seed int64
	// UtilThreshold is the busy percentage above which ContentionAware
	// considers a device contended (default 40, the Fig 3 knee used by
	// policy.DefaultAdaptiveConfig).
	UtilThreshold int
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
	devs      []*gpu.Device
	clock     *vtime.Clock
	policy    Policy
	threshold int

	mu     sync.Mutex
	rng    *rand.Rand
	cursor int
	ring   *Ring // non-nil iff policy is ConsistentHash

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

// New builds the pool, creating device i from cfg.Specs[i] with ordinal i
// (the ordinal is stamped into every DevPtr the device hands out).
func New(cfg Config, clock *vtime.Clock) (*Pool, error) {
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("gpupool: at least one device spec required")
	}
	if len(cfg.Specs) > gpu.MaxDevices {
		return nil, fmt.Errorf("gpupool: %d devices exceeds limit %d", len(cfg.Specs), gpu.MaxDevices)
	}
	threshold := cfg.UtilThreshold
	if threshold <= 0 {
		threshold = 40
	}
	p := &Pool{
		clock:     clock,
		policy:    cfg.Policy,
		threshold: threshold,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
	}
	for i, spec := range cfg.Specs {
		p.devs = append(p.devs, gpu.NewIndexed(spec, clock, i))
	}
	if cfg.Policy == ConsistentHash {
		p.ring = NewRing(len(cfg.Specs), 0, cfg.Seed)
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
	p.mu.Lock()
	var ord int
	switch p.policy {
	case LeastOutstanding:
		ord = p.leastOutstandingLocked(nil)
	case ContentionAware:
		ord = p.contentionAwareLocked(nil)
	case ConsistentHash:
		ord = p.ring.Pick(client)
	default:
		ord = p.cursor % len(p.devs)
		p.cursor++
	}
	p.mu.Unlock()
	p.rec.Emit(flightrec.DomainGPU, flightrec.EvPlace,
		p.rec.ExecTrace(), 0, ord, uint64(p.policy), 0, 0)
	return ord
}

// PlaceFlush picks the device for one batched flush: the least-utilized
// eligible device (nil eligible = all devices), breaking utilization ties
// by smaller backlog and then by a seeded PRNG draw. Flush placement is
// load-driven regardless of the context policy — a flush is a single
// launch, so steering it to spare capacity is always profitable.
func (p *Pool) PlaceFlush(eligible []int) int {
	p.mu.Lock()
	ord := p.contentionAwareLocked(eligible)
	p.mu.Unlock()
	p.rec.Emit(flightrec.DomainGPU, flightrec.EvPlace,
		p.rec.ExecTrace(), 0, ord, uint64(p.policy), 1, 0)
	return ord
}

// leastOutstandingLocked returns the eligible ordinal with the smallest
// queued backlog, lowest ordinal on ties (deterministic without a draw).
func (p *Pool) leastOutstandingLocked(eligible []int) int {
	now := p.clock.Now()
	best, bestBacklog := -1, time.Duration(0)
	for _, ord := range p.eligible(eligible) {
		backlog := p.devs[ord].BusyUntil() - now
		if backlog < 0 {
			backlog = 0
		}
		if best < 0 || backlog < bestBacklog {
			best, bestBacklog = ord, backlog
		}
	}
	return best
}

// contentionAwareLocked prefers devices under the utilization threshold,
// then minimizes utilization; ties fall to smaller backlog, then to a PRNG
// draw so colliding clients spread out deterministically under the seed.
func (p *Pool) contentionAwareLocked(eligible []int) int {
	now := p.clock.Now()
	type cand struct {
		ord     int
		util    float64
		backlog time.Duration
	}
	var best []cand
	for _, ord := range p.eligible(eligible) {
		d := p.devs[ord]
		c := cand{ord: ord, util: d.Utilization(utilWindow, ""), backlog: d.BusyUntil() - now}
		if c.backlog < 0 {
			c.backlog = 0
		}
		switch {
		case len(best) == 0:
			best = append(best, c)
		case c.util < best[0].util || (c.util == best[0].util && c.backlog < best[0].backlog):
			best = append(best[:0], c)
		case c.util == best[0].util && c.backlog == best[0].backlog:
			best = append(best, c)
		}
	}
	if len(best) == 1 {
		return best[0].ord
	}
	return best[p.rng.Intn(len(best))].ord
}

// eligible expands a nil filter to all ordinals and drops out-of-range
// entries from an explicit one.
func (p *Pool) eligible(filter []int) []int {
	if filter == nil {
		all := make([]int, len(p.devs))
		for i := range all {
			all[i] = i
		}
		return all
	}
	var out []int
	for _, ord := range filter {
		if ord >= 0 && ord < len(p.devs) {
			out = append(out, ord)
		}
	}
	if len(out) == 0 {
		out = append(out, 0)
	}
	return out
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
