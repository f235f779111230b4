package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lakego/internal/batcher"
	"lakego/internal/flightrec"
	"lakego/internal/gpupool"
)

// TenantConfig parameterizes one tenant's admission.
type TenantConfig struct {
	// Weight is the tenant's fair-share weight (default 1): under the
	// fleet-wide MaxOutstanding cap each tenant is guaranteed
	// cap*weight/totalWeight in-flight requests; spare capacity is
	// work-conserving.
	Weight int
	// MaxOutstanding caps this tenant's in-flight requests regardless of
	// fleet load (0 = no per-tenant cap).
	MaxOutstanding int
}

// Tenant is one routed client identity: a sticky shard assignment plus
// admission state. All fleet Clients for one name share the Tenant.
type Tenant struct {
	f    *Fleet
	name string
	cfg  TenantConfig

	mu    sync.Mutex
	shard int // -1 until first placement
	sc    *batcher.Client

	outstanding atomic.Int64
	peak        atomic.Int64
}

// Name returns the tenant's identity, the consistent-hash routing key.
func (t *Tenant) Name() string { return t.name }

// Shard returns the tenant's current shard assignment (-1 before first
// placement).
func (t *Tenant) Shard() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.shard
}

// Outstanding reports the tenant's in-flight requests across the fleet.
func (t *Tenant) Outstanding() int64 { return t.outstanding.Load() }

// PeakOutstanding reports the high-water mark of the tenant's in-flight
// requests, the witness for admission-invariant tests: it can never
// exceed the tenant's MaxOutstanding cap.
func (t *Tenant) PeakOutstanding() int64 { return t.peak.Load() }

// Tenant get-or-creates the named tenant, applying cfg on first creation
// (a zero cfg means weight 1, no per-tenant cap).
func (f *Fleet) Tenant(name string, cfg TenantConfig) *Tenant {
	if cfg.Weight <= 0 {
		cfg.Weight = 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if t, ok := f.tenants[name]; ok {
		return t
	}
	t := &Tenant{f: f, name: name, cfg: cfg, shard: -1}
	f.tenants[name] = t
	f.totalWeight.Add(int64(cfg.Weight))
	return t
}

// Client is a tenant's submission handle, the fleet analogue of
// batcher.Client: Submit routes to the tenant's shard, Wait collects.
type Client struct {
	t *Tenant
}

// Client returns a handle for the named tenant (default TenantConfig when
// the tenant is new).
func (f *Fleet) Client(tenant string) *Client {
	return &Client{t: f.Tenant(tenant, TenantConfig{})}
}

// Tenant returns the client's tenant record.
func (c *Client) Tenant() *Tenant { return c.t }

// Pending is one in-flight fleet request, one object: the shard-level handle
// by value plus the routing bookkeeping undone on delivery.
type Pending struct {
	p     batcher.Pending
	t     *Tenant
	shard *Shard
}

// Wait blocks until the request is delivered, releasing its admission
// slots. Exactly one goroutine should Wait per Pending.
func (p *Pending) Wait() ([][]float32, error) {
	out, err := p.p.Wait()
	p.shard.outstanding.Add(-1)
	p.t.release()
	return out, err
}

// Latency reports enqueue-to-delivery virtual time; valid after Wait.
func (p *Pending) Latency() time.Duration { return p.p.Latency() }

// admit applies fleet admission on top of the shard batcher's own depth
// bound. The rule is work-conserving weighted fair share: a tenant below
// its per-tenant cap is admitted while it is under its fleet share OR the
// fleet has spare capacity; at the fleet cap, only tenants under their
// share get in, so a chatty tenant drains back to its quota instead of
// starving the others.
//
// It reserves the tenant and fleet slots first and checks the caps against
// the reserved counts, rolling back on a reject, so concurrent submitters
// cannot all pass a check-then-increment and overshoot a cap. An admitted
// caller owns the reservation: release it on any later failure, or let
// Pending.Wait do so on delivery.
func (t *Tenant) admit() error {
	f := t.f
	o := t.outstanding.Add(1)
	fo := f.outstanding.Add(1)
	reject := t.cfg.MaxOutstanding > 0 && o > int64(t.cfg.MaxOutstanding)
	if cap := int64(f.cfg.MaxOutstanding); !reject && cap > 0 && fo > cap {
		share := cap * int64(t.cfg.Weight) / f.totalWeight.Load()
		if share < 1 {
			share = 1
		}
		reject = o > share
	}
	if reject {
		t.release()
		f.rejects.Inc()
		return batcher.ErrBackpressure
	}
	for {
		peak := t.peak.Load()
		if o <= peak || t.peak.CompareAndSwap(peak, o) {
			return nil
		}
	}
}

// release returns one admitted slot to the tenant and the fleet.
func (t *Tenant) release() {
	t.outstanding.Add(-1)
	t.f.outstanding.Add(-1)
}

// Submit routes one request to the tenant's shard and enqueues it there,
// re-placing the tenant first if its shard stopped accepting traffic. It
// fails fast with batcher.ErrBackpressure from either admission layer.
func (c *Client) Submit(model string, items [][]float32) (*Pending, error) {
	t := c.t
	f := t.f
	if err := t.admit(); err != nil {
		return nil, err
	}
	s, sc, rerouted, decideNs, err := t.route()
	if err != nil {
		t.release()
		return nil, err
	}
	p := &Pending{t: t, shard: s}
	if err := sc.SubmitInto(&p.p, model, items); err != nil {
		t.release()
		return nil, err
	}
	s.outstanding.Add(1)
	var reroute uint64
	if rerouted {
		reroute = 1
	}
	// The route event lands in the router domain through the destination
	// shard's recorder view, so the stitched per-call timeline shows both
	// the hop and where it landed.
	s.rt.FlightRecorder().Emit(flightrec.DomainRouter, flightrec.EvRoute,
		p.p.TraceID(), 0, 0, uint64(f.policy), reroute, decideNs)
	return p, nil
}

// Route resolves (placing if necessary) the tenant's shard without
// submitting anything. Open-loop drivers use it to advance the target
// shard's clock to a scheduled arrival instant before Submit, so queueing
// delay is charged from the arrival, not from whenever the driver got
// around to it.
func (c *Client) Route() (*Shard, error) {
	s, _, _, _, err := c.t.route()
	return s, err
}

// Infer is Submit followed by Wait.
func (c *Client) Infer(model string, items [][]float32) ([][]float32, error) {
	p, err := c.Submit(model, items)
	if err != nil {
		return nil, err
	}
	return p.Wait()
}

// route returns the tenant's shard and per-shard batcher client, placing
// (or re-placing, when the sticky shard left Active) under the fleet lock.
// decideNs times place for the route event: 0 on a sticky hit or unrecorded.
func (t *Tenant) route() (s *Shard, sc *batcher.Client, rerouted bool, decideNs uint64, err error) {
	f := t.f
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.shard >= 0 && f.shards[t.shard].State() == Active {
		return f.shards[t.shard], t.sc, false, 0, nil
	}
	rerouted = t.shard >= 0
	start := f.rec.WallStart()
	ord, err := f.place(t.name)
	if err != nil {
		return nil, nil, false, 0, err
	}
	decideNs = flightrec.WallSince(start)
	t.shard = ord
	t.sc = f.shards[ord].b.Client(t.name)
	if rerouted {
		f.reroutes.Inc()
	}
	return f.shards[ord], t.sc, rerouted, decideNs, nil
}

// place picks an Active shard for the tenant under the router policy.
// Placement draws are serialized under the fleet mutex so fixed-seed runs
// stay reproducible.
func (f *Fleet) place(tenant string) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ord := -1
	switch f.policy {
	case gpupool.ConsistentHash:
		ord = f.ring.PickHealthy(tenant, func(m int) bool {
			return f.shards[m].State() == Active
		})
	case gpupool.LeastOutstanding:
		ord = f.leastOutstandingLocked()
	case gpupool.ContentionAware:
		ord = f.contentionAwareLocked()
	default: // RoundRobin
		for range f.shards {
			cand := f.cursor % len(f.shards)
			f.cursor++
			if f.shards[cand].State() == Active {
				ord = cand
				break
			}
		}
	}
	if ord < 0 {
		return -1, fmt.Errorf("fleet: no active shard to place tenant %q", tenant)
	}
	f.placements.Inc()
	return ord, nil
}

// leastOutstandingLocked returns the Active shard with the fewest in-flight
// requests, lowest ordinal on ties (deterministic without a draw).
func (f *Fleet) leastOutstandingLocked() int {
	best, bestOut := -1, int64(0)
	for _, s := range f.shards {
		if s.State() != Active {
			continue
		}
		out := s.outstanding.Load()
		if best < 0 || out < bestOut {
			best, bestOut = s.ord, out
		}
	}
	return best
}

// contentionAwareLocked prefers Active shards whose pool-wide utilization
// is below the threshold, then minimizes utilization; ties fall to fewer
// outstanding requests, then to a seeded PRNG draw.
func (f *Fleet) contentionAwareLocked() int {
	type cand struct {
		ord  int
		util int
		out  int64
	}
	var best []cand
	for _, s := range f.shards {
		if s.State() != Active {
			continue
		}
		c := cand{ord: s.ord, util: s.rt.Pool().AggregateRates().GPU, out: s.outstanding.Load()}
		switch {
		case len(best) == 0:
			best = append(best, c)
		case c.util < best[0].util || (c.util == best[0].util && c.out < best[0].out):
			best = append(best[:0], c)
		case c.util == best[0].util && c.out == best[0].out:
			best = append(best, c)
		}
	}
	switch len(best) {
	case 0:
		return -1
	case 1:
		return best[0].ord
	}
	return best[f.rng.Intn(len(best))].ord
}
