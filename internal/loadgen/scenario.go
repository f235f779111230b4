// Package loadgen is the macro test layer: an open-loop, trace-driven load
// generator that replays a huge, churning client population against a full
// internal/fleet runtime on the virtual clock.
//
// The LAKE evaluation (§7.1, Table 4) replays rerated enterprise storage
// traces against the kernel/daemon boundary; internal/trace reproduces those
// generators and the micro-benchmarks replay them one subsystem at a time.
// What the micro-benches cannot answer is the production question: does the
// whole fleet — router, admission, batching, device pools, fault plane —
// hold its latency SLOs when millions of independent clients offer load the
// way a datacenter does? loadgen answers it with three deliberate choices:
//
//   - Open-loop arrivals. Clients issue requests on a schedule drawn from
//     the Table 4 inter-arrival distributions, modulated by diurnal and
//     burst curves — they do not wait for responses before issuing the next
//     request. A closed-loop driver slows down when the system slows down,
//     silently hiding overload (coordinated omission); an open-loop one
//     keeps offering load, so queueing delay lands in the measured latency
//     and overload shows up as SLO misses and sheds, not as a slower test.
//   - Clients as an event heap, not goroutines. A simulated client is ~40
//     bytes of state (next arrival, session end, generation) plus a
//     stateless hash-derived random stream; arrivals pop off a binary heap
//     in virtual-time order on one driver goroutine. That is what makes a
//     million-client population replay byte-identically under -race — and
//     cheaply enough for CI.
//   - SLO gating. Each tenant class carries a p99/p999 latency budget;
//     attainment (the fraction of *arrivals* — sheds count as misses —
//     served within budget) is the pass/fail signal, and a rate sweep
//     locates the capacity knee: the highest rate multiplier at which every
//     class still meets its SLO. Results serialize to one canonical
//     JSON file (BenchJSON) that cmd/lakeload's results.golden pins byte
//     for byte, so CI fails on any macro behaviour change.
package loadgen

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"lakego/internal/fleet"
	"lakego/internal/gpupool"
	"lakego/internal/trace"
)

// Scenario is one macro workload: a fleet shape plus a client population
// and its per-tenant traffic mix. The zero value is not runnable; start
// from a builtin (Smoke, Million, Storm) or ParseScenario, then Validate.
type Scenario struct {
	// Name labels the run; it prefixes every results group
	// ("Lakeload/<name>").
	Name string `json:"name"`
	// Seed drives every random draw in the replay (arrival schedules,
	// churn, feature synthesis). Fixed seed => byte-identical results.
	Seed int64 `json:"seed"`
	// DurationMS is the arrival window in virtual milliseconds: arrivals
	// are scheduled in [0, Duration); the tail drains past it.
	DurationMS float64 `json:"duration_ms"`
	// Clients is the simulated client population size.
	Clients int `json:"clients"`
	// Shards sizes the fleet (default 1).
	Shards int `json:"shards,omitempty"`
	// Devices is the per-shard GPU pool size (default 1).
	Devices int `json:"devices,omitempty"`
	// RouterPolicy places tenants on shards: round-robin,
	// least-outstanding, contention-aware or consistent-hash (default).
	RouterPolicy string `json:"router_policy,omitempty"`
	// RouterSeed seeds the router's ring/PRNG (default Seed).
	RouterSeed int64 `json:"router_seed,omitempty"`
	// RateMultiplier scales every class's offered rate; the knee sweep
	// ladders it. Default 1.
	RateMultiplier float64 `json:"rate_multiplier,omitempty"`
	// FleetMaxOutstanding caps fleet-wide in-flight requests for weighted
	// fair-share admission (0 = uncapped).
	FleetMaxOutstanding int `json:"fleet_max_outstanding,omitempty"`
	// MaxInflight bounds the driver's undelivered-request window: past it
	// the oldest request is waited for before the next arrival submits.
	// Default 4096.
	MaxInflight int `json:"max_inflight,omitempty"`

	// Batcher tunes each shard's batching subsystem.
	Batcher BatcherKnobs `json:"batcher,omitempty"`
	// Faults, when non-nil, arms each shard's deterministic fault plane.
	Faults *FaultKnobs `json:"faults,omitempty"`
	// Churn, when non-nil, gives clients finite sessions: a client whose
	// session expired is replaced (after a reconnect gap) by a fresh one
	// with a new random stream and possibly a new tenant group.
	Churn *ChurnKnobs `json:"churn,omitempty"`
	// Diurnal, when non-nil, modulates every class's rate sinusoidally.
	Diurnal *DiurnalKnobs `json:"diurnal,omitempty"`
	// Bursts multiply the rate inside [AtMS, AtMS+DurationMS) windows.
	Bursts []Burst `json:"bursts,omitempty"`

	// Tenants is the traffic mix; fractions must sum to <= 1 (the
	// remainder of the population is idle).
	Tenants []TenantClass `json:"tenants"`

	// Observer, when non-nil, is a per-replay hook factory: it is invoked
	// with the freshly booted fleet before arrivals start and may return a
	// RunObserver that receives virtual-time ticks during the drive and the
	// collected result at the end (cmd/lakeload's -live-slo attaches the
	// health plane this way). Never serialized — Canon, scenario files and
	// sweep rungs (which copy the scenario by value) carry it untouched.
	Observer func(f *fleet.Fleet) RunObserver `json:"-"`
}

// BatcherKnobs tunes the per-shard batcher. Zero fields keep loadgen
// defaults (not batcher defaults: the load generator wants a deep client
// depth so fleet admission, not the per-handle depth, is what sheds).
type BatcherKnobs struct {
	// MaxBatch is the target flush size in items (default 32).
	MaxBatch int `json:"max_batch,omitempty"`
	// MaxWaitUS is the deadline-flush bound in virtual µs (default 100).
	MaxWaitUS float64 `json:"max_wait_us,omitempty"`
	// ClientDepth bounds one tenant-group's outstanding requests on one
	// shard (default 1024 — deep, so shedding is an admission decision).
	ClientDepth int `json:"client_depth,omitempty"`
}

// FaultKnobs maps onto faults.Mix (probabilities in [0,1)).
type FaultKnobs struct {
	Seed      int64   `json:"seed,omitempty"`
	Drop      float64 `json:"drop,omitempty"`
	Corrupt   float64 `json:"corrupt,omitempty"`
	Duplicate float64 `json:"duplicate,omitempty"`
	Crash     float64 `json:"crash,omitempty"`
}

// ChurnKnobs parameterizes connection churn.
type ChurnKnobs struct {
	// MeanSessionMS is the exponential mean client session length.
	MeanSessionMS float64 `json:"mean_session_ms"`
	// ReconnectMS is the gap before the replacement client's first
	// arrival (default 1ms).
	ReconnectMS float64 `json:"reconnect_ms,omitempty"`
}

// DiurnalKnobs is the compressed day/night rate curve:
// rate(t) = base * (1 + Amplitude*sin(2*pi*t/Period)).
type DiurnalKnobs struct {
	PeriodMS  float64 `json:"period_ms"`
	Amplitude float64 `json:"amplitude"`
}

// Burst is one rate spike: inside [AtMS, AtMS+DurationMS) the offered
// rate is multiplied by Multiplier.
type Burst struct {
	AtMS       float64 `json:"at_ms"`
	DurationMS float64 `json:"duration_ms"`
	Multiplier float64 `json:"multiplier"`
}

// TenantClass is one slice of the population: a traffic type (which LAKE
// subsystem its requests exercise), an arrival profile, a share of the
// client population, fleet admission parameters and an SLO budget.
type TenantClass struct {
	// Name labels the class ("Lakeload/<scenario>/tenant=<name>").
	Name string `json:"name"`
	// Mix selects the modeled subsystem: linnos, kml, mllb, malware or
	// ecryptfs (see models.go for each class's inference shape).
	Mix string `json:"mix"`
	// Profile selects the Table 4 arrival family: azure, bing-i, cosmos.
	// The profile's AvgIOPS (times Rerate and the scenario multiplier) is
	// the class's aggregate offered rate, spread over its clients.
	Profile string `json:"profile"`
	// Fraction is this class's share of Scenario.Clients.
	Fraction float64 `json:"fraction"`
	// Rerate scales the profile's IOPS, the paper's §7.1 technique.
	// Default 1.
	Rerate float64 `json:"rerate,omitempty"`
	// Groups is how many fleet tenants (admission identities) the class's
	// clients share, the way many connections share one cgroup. Default 4.
	Groups int `json:"groups,omitempty"`
	// Weight is each group's fair-share weight (default 1).
	Weight int `json:"weight,omitempty"`
	// MaxOutstanding caps each group's in-flight requests (0 = uncapped).
	MaxOutstanding int `json:"max_outstanding,omitempty"`
	// QueueBound is the open-loop discipline: an arrival finding its
	// group already at this many undelivered requests is shed (counted,
	// never retried). Default 256.
	QueueBound int `json:"queue_bound,omitempty"`
	// SLOp99US / SLOp999US are the latency budgets in virtual µs: the
	// class meets its SLO when >= 99% of arrivals complete within
	// SLOp99US and >= 99.9% within SLOp999US (0 disables the p999 bound).
	SLOp99US  float64 `json:"slo_p99_us"`
	SLOp999US float64 `json:"slo_p999_us,omitempty"`
}

// Defaulted scenario knobs.
const (
	defaultMaxInflight = 4096
	defaultGroups      = 4
	defaultQueueBound  = 256
	defaultClientDepth = 1024
	defaultMaxBatch    = 32
	defaultMaxWaitUS   = 100.0
	defaultReconnectMS = 1.0
)

// ParseScenario decodes and validates a scenario file. Unknown fields are
// rejected so a typo'd knob cannot silently revert to a default.
func ParseScenario(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("loadgen: bad scenario: %w", err)
	}
	// Trailing garbage after the object is a malformed file, not data.
	if dec.More() {
		return nil, fmt.Errorf("loadgen: bad scenario: trailing data after scenario object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate normalizes defaults in place and rejects unrunnable scenarios.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("loadgen: scenario needs a name")
	}
	if strings.ContainsAny(s.Name, "/ \t\n") {
		return fmt.Errorf("loadgen: scenario name %q may not contain '/' or spaces (it keys results groups)", s.Name)
	}
	if !(s.DurationMS > 0) || s.DurationMS > 3.6e6 {
		return fmt.Errorf("loadgen: duration_ms %v out of (0, 3.6e6]", s.DurationMS)
	}
	if s.Clients <= 0 || s.Clients > 64<<20 {
		return fmt.Errorf("loadgen: clients %d out of (0, 64Mi]", s.Clients)
	}
	if s.Shards < 0 || s.Shards > 64 {
		return fmt.Errorf("loadgen: shards %d out of [0, 64]", s.Shards)
	}
	if s.Shards == 0 {
		s.Shards = 1
	}
	if s.Devices < 0 || s.Devices > 64 {
		return fmt.Errorf("loadgen: devices %d out of [0, 64]", s.Devices)
	}
	if s.RouterPolicy == "" {
		s.RouterPolicy = "consistent-hash"
	}
	if _, err := gpupool.ParsePolicy(s.RouterPolicy); err != nil {
		return fmt.Errorf("loadgen: router_policy: %w", err)
	}
	if s.RouterSeed == 0 {
		s.RouterSeed = s.Seed
	}
	if s.RateMultiplier == 0 {
		s.RateMultiplier = 1
	}
	if !(s.RateMultiplier > 0) || s.RateMultiplier > 1e6 {
		return fmt.Errorf("loadgen: rate_multiplier %v out of (0, 1e6]", s.RateMultiplier)
	}
	if s.FleetMaxOutstanding < 0 {
		return fmt.Errorf("loadgen: fleet_max_outstanding %d negative", s.FleetMaxOutstanding)
	}
	if s.MaxInflight < 0 {
		return fmt.Errorf("loadgen: max_inflight %d negative", s.MaxInflight)
	}
	if s.MaxInflight == 0 {
		s.MaxInflight = defaultMaxInflight
	}
	if s.Batcher.MaxBatch < 0 || s.Batcher.MaxWaitUS < 0 || s.Batcher.ClientDepth < 0 {
		return fmt.Errorf("loadgen: negative batcher knob")
	}
	if s.Batcher.MaxBatch == 0 {
		s.Batcher.MaxBatch = defaultMaxBatch
	}
	if s.Batcher.MaxWaitUS == 0 {
		s.Batcher.MaxWaitUS = defaultMaxWaitUS
	}
	if s.Batcher.ClientDepth == 0 {
		s.Batcher.ClientDepth = defaultClientDepth
	}
	if f := s.Faults; f != nil {
		for _, p := range []float64{f.Drop, f.Corrupt, f.Duplicate, f.Crash} {
			if p < 0 || p >= 1 || p != p {
				return fmt.Errorf("loadgen: fault probability %v out of [0, 1)", p)
			}
		}
	}
	if c := s.Churn; c != nil {
		if !(c.MeanSessionMS > 0) {
			return fmt.Errorf("loadgen: churn mean_session_ms %v not positive", c.MeanSessionMS)
		}
		if c.ReconnectMS < 0 || c.ReconnectMS != c.ReconnectMS {
			return fmt.Errorf("loadgen: churn reconnect_ms %v negative", c.ReconnectMS)
		}
		if c.ReconnectMS == 0 {
			c.ReconnectMS = defaultReconnectMS
		}
	}
	if d := s.Diurnal; d != nil {
		if !(d.PeriodMS > 0) {
			return fmt.Errorf("loadgen: diurnal period_ms %v not positive", d.PeriodMS)
		}
		if !(d.Amplitude >= 0) || d.Amplitude >= 1 {
			return fmt.Errorf("loadgen: diurnal amplitude %v out of [0, 1)", d.Amplitude)
		}
	}
	for i, b := range s.Bursts {
		if !(b.AtMS >= 0) || !(b.DurationMS > 0) || !(b.Multiplier > 0) || b.Multiplier > 1e4 {
			return fmt.Errorf("loadgen: burst %d invalid (at=%v dur=%v mult=%v)", i, b.AtMS, b.DurationMS, b.Multiplier)
		}
	}
	if len(s.Tenants) == 0 {
		return fmt.Errorf("loadgen: scenario needs at least one tenant class")
	}
	if len(s.Tenants) > 64 {
		return fmt.Errorf("loadgen: %d tenant classes, max 64", len(s.Tenants))
	}
	var frac float64
	seen := make(map[string]bool, len(s.Tenants))
	for i := range s.Tenants {
		c := &s.Tenants[i]
		if c.Name == "" {
			return fmt.Errorf("loadgen: tenant class %d needs a name", i)
		}
		if strings.ContainsAny(c.Name, "/= \t\n") {
			return fmt.Errorf("loadgen: tenant class name %q may not contain '/', '=' or spaces", c.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("loadgen: duplicate tenant class %q", c.Name)
		}
		seen[c.Name] = true
		if _, err := classModel(c.Mix); err != nil {
			return fmt.Errorf("loadgen: tenant class %q: %w", c.Name, err)
		}
		if _, err := trace.ProfileByName(c.Profile); err != nil {
			return fmt.Errorf("loadgen: tenant class %q: %w", c.Name, err)
		}
		if !(c.Fraction > 0) || c.Fraction > 1 {
			return fmt.Errorf("loadgen: tenant class %q fraction %v out of (0, 1]", c.Name, c.Fraction)
		}
		frac += c.Fraction
		if c.Rerate == 0 {
			c.Rerate = 1
		}
		if !(c.Rerate > 0) || c.Rerate > 1e6 {
			return fmt.Errorf("loadgen: tenant class %q rerate %v out of (0, 1e6]", c.Name, c.Rerate)
		}
		if c.Groups < 0 || c.Groups > 4096 {
			return fmt.Errorf("loadgen: tenant class %q groups %d out of [0, 4096]", c.Name, c.Groups)
		}
		if c.Groups == 0 {
			c.Groups = defaultGroups
		}
		if c.Weight < 0 {
			return fmt.Errorf("loadgen: tenant class %q weight %d negative", c.Name, c.Weight)
		}
		if c.Weight == 0 {
			c.Weight = 1
		}
		if c.MaxOutstanding < 0 {
			return fmt.Errorf("loadgen: tenant class %q max_outstanding negative", c.Name)
		}
		if c.QueueBound < 0 {
			return fmt.Errorf("loadgen: tenant class %q queue_bound negative", c.Name)
		}
		if c.QueueBound == 0 {
			c.QueueBound = defaultQueueBound
		}
		if !(c.SLOp99US > 0) {
			return fmt.Errorf("loadgen: tenant class %q needs a positive slo_p99_us", c.Name)
		}
		if c.SLOp999US < 0 || c.SLOp999US != c.SLOp999US {
			return fmt.Errorf("loadgen: tenant class %q slo_p999_us %v negative", c.Name, c.SLOp999US)
		}
		if c.SLOp999US > 0 && c.SLOp999US < c.SLOp99US {
			return fmt.Errorf("loadgen: tenant class %q p999 budget %v below p99 budget %v", c.Name, c.SLOp999US, c.SLOp99US)
		}
	}
	if frac > 1.0001 {
		return fmt.Errorf("loadgen: tenant fractions sum to %v > 1", frac)
	}
	return nil
}

// Duration returns the arrival window as a virtual duration.
func (s *Scenario) Duration() time.Duration {
	return time.Duration(s.DurationMS * float64(time.Millisecond))
}

// classRate returns the class's aggregate offered rate in requests per
// virtual second at the scenario's multiplier (before diurnal/burst
// modulation).
func (s *Scenario) classRate(c *TenantClass) float64 {
	p, err := trace.ProfileByName(c.Profile)
	if err != nil {
		panic("loadgen: unvalidated scenario: " + err.Error()) // Validate gates this
	}
	return p.AvgIOPS * c.Rerate * s.RateMultiplier
}

// rateFactor is the time-varying rate modulation shared by every class:
// diurnal curve times any burst window covering t.
func (s *Scenario) rateFactor(t time.Duration) float64 {
	f := 1.0
	if d := s.Diurnal; d != nil {
		period := time.Duration(d.PeriodMS * float64(time.Millisecond))
		f *= 1 + d.Amplitude*sinTurns(float64(t)/float64(period))
	}
	for _, b := range s.Bursts {
		at := time.Duration(b.AtMS * float64(time.Millisecond))
		end := at + time.Duration(b.DurationMS*float64(time.Millisecond))
		if t >= at && t < end {
			f *= b.Multiplier
		}
	}
	return f
}

// peakFactor bounds rateFactor over the whole run, the thinning envelope.
func (s *Scenario) peakFactor() float64 {
	f := 1.0
	if s.Diurnal != nil {
		f *= 1 + s.Diurnal.Amplitude
	}
	// Bursts can overlap; the envelope is the product of all multipliers
	// that could coincide. Overlap detection by pairwise check is enough
	// at the validated burst counts.
	mult := 1.0
	for i, b := range s.Bursts {
		m := b.Multiplier
		for j, o := range s.Bursts {
			if i == j {
				continue
			}
			aStart, aEnd := b.AtMS, b.AtMS+b.DurationMS
			oStart, oEnd := o.AtMS, o.AtMS+o.DurationMS
			if oStart < aEnd && aStart < oEnd && j > i {
				m *= o.Multiplier
			}
		}
		if m > mult {
			mult = m
		}
	}
	return f * mult
}

// Canon returns the scenario's canonical JSON (sorted keys, normalized
// defaults), the fuzz round-trip anchor.
func (s *Scenario) Canon() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// sortedMultipliers copies and sorts a sweep ladder ascending.
func sortedMultipliers(ms []float64) []float64 {
	out := append([]float64(nil), ms...)
	sort.Float64s(out)
	return out
}
