package fleet

import (
	"fmt"
	"sort"

	"lakego/internal/flightrec"
)

// Migration is the report of one completed shard drain or kill.
type Migration struct {
	// Src is the retired shard's ordinal.
	Src int
	// Tenants is how many sticky assignments were moved off Src.
	Tenants int
}

// Drain gracefully retires shard ord: placement stops and the shard's
// tenants re-route on their next submit. A request already on the shard
// finishes there, on the lakeLib that issued it, so a drained run is
// bit-identical to an undrained one — zero calls lost, zero re-executed.
func (f *Fleet) Drain(ord int) (*Migration, error) {
	s, err := f.retire(ord)
	if err != nil {
		return nil, err
	}
	return f.migrate(s)
}

// Kill hard-fails shard ord mid-traffic: the daemon crashes and its
// supervisor abandons it (no restart — the fleet, not the supervisor, owns
// recovery now), and tenants are re-routed. In-flight flushes on the dead
// shard complete on the CPU fallback path, so no call is lost, and no call
// is resubmitted on another shard, so none is re-executed.
func (f *Fleet) Kill(ord int) (*Migration, error) {
	s, err := f.retire(ord)
	if err != nil {
		return nil, err
	}
	if sup := s.rt.Supervisor(); sup != nil {
		sup.Abandon()
	}
	s.rt.Daemon().InjectCrash(false)
	return f.migrate(s)
}

// retire moves the shard from Active to Dead, so the router stops placing
// onto it.
func (f *Fleet) retire(ord int) (*Shard, error) {
	if ord < 0 || ord >= len(f.shards) {
		return nil, fmt.Errorf("fleet: no shard %d", ord)
	}
	s := f.shards[ord]
	if !s.state.CompareAndSwap(int32(Active), int32(Dead)) {
		return nil, fmt.Errorf("fleet: shard %d is %s, not Active", ord, s.State())
	}
	return s, nil
}

// migrate moves the retired shard's tenants off it, refusing when no Active
// shard is left to take them. The migration events go through the retired
// shard's recorder view.
func (f *Fleet) migrate(src *Shard) (*Migration, error) {
	active := false
	for _, s := range f.shards {
		active = active || s.State() == Active
	}
	if !active {
		return nil, fmt.Errorf("fleet: no active shard left to inherit shard %d", src.ord)
	}
	rec := src.rt.FlightRecorder()
	rec.Emit(flightrec.DomainRouter, flightrec.EvMigrateStart,
		0, 0, 0, uint64(src.ord), 0, 0)
	tenants := f.evictTenants(src.ord)
	f.migrations.Inc()
	rec.Emit(flightrec.DomainRouter, flightrec.EvMigrateEnd,
		0, 0, 0, uint64(src.ord), 0, 0)
	return &Migration{Src: src.ord, Tenants: tenants}, nil
}

// evictTenants drops the stale batcher handle of every tenant stuck to
// shard ord, in sorted name order, and counts them: each re-places lazily
// on its next submit through Tenant.route, which sees the shard out of
// Active and fires the reroute path. The sticky ordinal is kept for that.
func (f *Fleet) evictTenants(ord int) int {
	// Snapshot under the fleet lock, mutate under each tenant's own lock:
	// route() acquires tenant-then-fleet, so holding both here would
	// invert the order.
	f.mu.Lock()
	names := make([]string, 0, len(f.tenants))
	tenants := make(map[string]*Tenant, len(f.tenants))
	for name, t := range f.tenants {
		names = append(names, name)
		tenants[name] = t
	}
	f.mu.Unlock()
	sort.Strings(names)
	n := 0
	for _, name := range names {
		t := tenants[name]
		t.mu.Lock()
		if t.shard == ord {
			t.sc = nil
			n++
		}
		t.mu.Unlock()
	}
	return n
}
