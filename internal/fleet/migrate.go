package fleet

import (
	"fmt"
	"runtime"
	"sort"

	"lakego/internal/flightrec"
	"lakego/internal/gpupool"
	"lakego/internal/remoting"
)

// Migration is the report of one completed shard drain or kill.
type Migration struct {
	// Src and Dst are the shard ordinals the journal moved between.
	Src, Dst int
	// JournalEntries is how many exactly-once entries crossed.
	JournalEntries int
	// Tenants is how many sticky assignments were moved off Src.
	Tenants int
	// HandoffBytes is the size of the CRC-sealed wire frame.
	HandoffBytes int
}

// Drain gracefully retires shard ord: placement stops, in-flight work
// quiesces, the exactly-once journal crosses to a successor as a sealed
// handoff frame, and the shard's tenants are re-routed. A drained run is
// bit-identical to an undrained one — zero calls lost, zero re-executed.
func (f *Fleet) Drain(ord int) (*Migration, error) {
	s, err := f.beginMigration(ord, Draining)
	if err != nil {
		return nil, err
	}
	// Quiesce: the router no longer places tenants here and sticky tenants
	// re-route on their next submit, so outstanding only drains. In-flight
	// requests finish normally — a drain never turns work into fallbacks.
	for s.outstanding.Load() > 0 {
		runtime.Gosched()
	}
	return f.migrate(s)
}

// Kill hard-fails shard ord mid-traffic: the daemon crashes and its
// supervisor abandons it (no restart — the fleet, not the supervisor, owns
// recovery now), the journal still crosses to a successor, and tenants are
// re-routed. In-flight flushes on the dead shard complete on the CPU
// fallback path, so no call is lost; redeliveries of calls the dead shard
// already executed are answered from the migrated journal, so none is
// re-executed.
func (f *Fleet) Kill(ord int) (*Migration, error) {
	s, err := f.beginMigration(ord, Dead)
	if err != nil {
		return nil, err
	}
	if sup := s.rt.Supervisor(); sup != nil {
		sup.Abandon(fmt.Sprintf("fleet: shard %d killed", ord))
	}
	s.rt.Daemon().InjectCrash(false)
	return f.migrate(s)
}

// beginMigration transitions the shard out of Active so the router stops
// placing onto it, and emits the migration-start event.
func (f *Fleet) beginMigration(ord int, to ShardState) (*Shard, error) {
	if ord < 0 || ord >= len(f.shards) {
		return nil, fmt.Errorf("fleet: no shard %d", ord)
	}
	s := f.shards[ord]
	if !s.state.CompareAndSwap(int32(Active), int32(to)) {
		return nil, fmt.Errorf("fleet: shard %d is %s, not Active", ord, s.State())
	}
	return s, nil
}

// migrate moves the shard's journal and tenants to a successor. The shard
// is already out of Active, so placement cannot race the transfer.
func (f *Fleet) migrate(src *Shard) (*Migration, error) {
	f.mu.Lock()
	dst := f.successorLocked()
	f.mu.Unlock()
	if dst < 0 {
		src.state.Store(int32(Dead))
		return nil, fmt.Errorf("fleet: no active shard left to inherit shard %d", src.ord)
	}
	// Migration events go through the successor's recorder view: the
	// transfer executes on the inheriting shard's timeline.
	drec := f.shards[dst].rt.FlightRecorder()
	drec.Emit(flightrec.DomainRouter, flightrec.EvMigrateStart,
		0, 0, 0, uint64(src.ord), uint64(dst), 0)

	// The journal rides the wire like everything else between shards: a
	// CRC-sealed frame, rejected wholesale on a flipped bit rather than
	// half-merged. Shard-tagged sequence spaces make the merge collision
	// free.
	entries := src.rt.Daemon().ExportJournal()
	frame, err := remoting.MarshalHandoff(&remoting.Handoff{
		SrcShard: uint32(src.ord),
		DstShard: uint32(dst),
		Entries:  entries,
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: shard %d handoff: %w", src.ord, err)
	}
	h, err := remoting.UnmarshalHandoff(frame)
	if err != nil {
		return nil, fmt.Errorf("fleet: shard %d handoff: %w", src.ord, err)
	}
	moved := f.shards[dst].rt.Daemon().ImportJournal(h.Entries)

	// Evict the shard's tenants (sorted for determinism): each re-places
	// lazily on its next submit through Tenant.route, which sees the shard
	// out of Active and fires the reroute path.
	tenants := f.evictTenants(src.ord)

	src.state.Store(int32(Dead))
	f.migrations.Inc()
	drec.Emit(flightrec.DomainRouter, flightrec.EvMigrateEnd,
		0, 0, 0, uint64(src.ord), uint64(dst), uint64(moved))
	return &Migration{
		Src:            src.ord,
		Dst:            dst,
		JournalEntries: moved,
		Tenants:        tenants,
		HandoffBytes:   len(frame),
	}, nil
}

// successorLocked picks the journal inheritor: the Active shard with the
// fewest in-flight requests, lowest ordinal on ties. The migrating shard
// already left Active, so it can never inherit from itself.
func (f *Fleet) successorLocked() int {
	return f.pickLocked(gpupool.LeastOutstanding, "")
}

// evictTenants drops the stale batcher handle of every tenant stuck to
// shard ord, in sorted name order, and counts them. The sticky ordinal is
// kept: Tenant.route treats a non-Active assignment as a reroute.
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
