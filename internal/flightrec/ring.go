package flightrec

import (
	"sync"
	"sync/atomic"
	"time"
)

// ring is an MPSC event ring sized to a power of two. Writers are the hot
// paths of every domain (lakeLib calls, lakeD dispatch, GPU launches); the
// readers are Snapshot and TailInto, which run rarely (a crash, a supervisor
// transition, an operator request, a health-plane poll).
//
// One mutex guards the cursor and the slots: a write is lock, claim the
// cursor, eventWords plain stores into the slot, unlock; a read copies under
// the same lock. Within one runtime most domains have one writer at a time
// (lakeLib and lakeD both emit under their transport's exchange lock), so the
// lock is usually uncontended, and it costs less than the per-word atomic
// stores a lock-free slot protocol needs. No reader can see a half-written
// slot, so an event is either whole or counted dropped — race-clean by
// construction, not by a stamp check that a preempted writer could defeat.
//
// Overflow overwrites the oldest slots, but never silently: Snapshot and
// TailInto report every overwritten slot in their dropped/skipped counts.
const eventWords = 8

type ring struct {
	mu     sync.Mutex
	mask   uint64
	cursor uint64 // next slot index to write; monotonically increasing
	slots  [][eventWords]uint64
}

func newRing(capacity int) *ring {
	if capacity < 64 {
		capacity = 64
	}
	// Round up to a power of two so slot = index & mask.
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &ring{mask: uint64(n - 1), slots: make([][eventWords]uint64, n)}
}

func (r *ring) capacity() uint64 { return r.mask + 1 }

// put writes one event's words in place at the next index, stamping its
// wall word from the shared coarse clock keyed on that index. meta is
// packMeta's word.
func (r *ring) put(vtime, traceID, seq, meta, a0, a1, a2 uint64, wall *atomic.Int64) {
	r.mu.Lock()
	idx := r.cursor
	r.cursor++
	s := &r.slots[idx&r.mask]
	s[0], s[1], s[2], s[3] = vtime, uint64(coarseWall(wall, idx)), traceID, seq
	s[4], s[5], s[6], s[7] = meta, a0, a1, a2
	r.mu.Unlock()
}

// coarseWall returns the cached wall clock for the event written at ring
// index idx, refreshed every wallRefreshEvery indices (and while unset).
func coarseWall(wall *atomic.Int64, idx uint64) int64 {
	if idx%wallRefreshEvery != 0 {
		if w := wall.Load(); w != 0 {
			return w
		}
	}
	now := time.Now().UnixNano()
	wall.Store(now)
	return now
}

// oldest is the index of the oldest surviving event, given the cursor.
func (r *ring) oldest(cur uint64) uint64 {
	if cur > r.capacity() {
		return cur - r.capacity()
	}
	return 0
}

// overwritten reports how many events have been lost to ring overflow so far.
func (r *ring) overwritten() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.oldest(r.cursor)
}

// snapshot decodes the surviving events oldest-first; dropped counts the
// slots lost to overflow — the recorder never truncates silently.
func (r *ring) snapshot() (events []Event, dropped uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	dropped = r.oldest(r.cursor)
	events = make([]Event, r.cursor-dropped)
	for i := range events {
		events[i] = unpackEvent(r.slots[(dropped+uint64(i))&r.mask])
	}
	return events, dropped
}

// tail decodes the events from index pos on into buf, oldest-first, and
// returns the count filled, the index to resume from, and how many events
// in [pos, oldest surviving) were overwritten before the read.
func (r *ring) tail(pos uint64, buf []Event) (n int, next, skipped uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old := r.oldest(r.cursor); pos < old {
		skipped, pos = old-pos, old
	}
	for ; pos < r.cursor && n < len(buf); pos++ {
		buf[n] = unpackEvent(r.slots[pos&r.mask])
		n++
	}
	return n, pos, skipped
}
