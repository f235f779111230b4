package boundary

// The doorbell: futex-style park/unpark on an atomic word. The ring
// transport replaces per-message Go-channel sends with descriptor pushes;
// the doorbell is the one remaining wakeup primitive, and it is paid only
// on the empty→nonempty ring transition — a whole batcher flush rings once.

import "sync/atomic"

// Doorbell state machine. The word is the futex: producers flip it, the
// consumer parks on it.
const (
	bellIdle   uint32 = iota // consumer running (or work pending); no wake needed
	bellParked               // consumer parked in Wait, needs an explicit wake
)

// doorbell is a binary wakeup latch shared by any number of ringers and one
// waiter. Ring is lock-free in the fast path (one atomic load when the
// waiter is running); only the idle→wake edge touches the channel, so a
// burst of N rings costs one wakeup — the rest coalesce.
//
// The protocol mirrors a futex: the waiter publishes "parked" with a CAS,
// re-checks the readiness predicate supplied by the caller, and only then
// sleeps; a ringer that observes parked swaps the word back to idle and
// posts the (capacity-1) wake channel. The re-check closes the lost-wakeup
// window — a ring that lands between the waiter's predicate miss and its
// park is observed either by the waiter's re-check or by the ringer's swap.
type doorbell struct {
	state atomic.Uint32
	wake  chan struct{}

	// Telemetry (racy-read safe): total rings, wakeups actually delivered,
	// and rings coalesced into an already-pending wake.
	rings     atomic.Uint64
	wakes     atomic.Uint64
	coalesced atomic.Uint64
}

// newDoorbell returns an idle doorbell.
func newDoorbell() *doorbell {
	return &doorbell{wake: make(chan struct{}, 1)}
}

// Ring notifies the waiter that work may be available. Alloc-free; safe for
// concurrent ringers. When no waiter is parked this is a single atomic load
// plus a counter bump.
func (b *doorbell) Ring() {
	b.rings.Add(1)
	if b.state.Load() != bellParked {
		return
	}
	if b.state.CompareAndSwap(bellParked, bellIdle) {
		b.wakes.Add(1)
		b.wake <- struct{}{} // cap 1, and only one CAS winner posts: never blocks
		return
	}
	b.coalesced.Add(1)
}

// Wait parks until a ring arrives, unless ready() already reports work.
// ready is re-checked after publishing the parked state, closing the race
// with a concurrent Ring. Single waiter only.
func (b *doorbell) Wait(ready func() bool) {
	if ready() {
		return
	}
	for {
		b.state.Store(bellParked)
		if ready() {
			// Work arrived before we could sleep. Un-park; a ringer may
			// have already swapped us back and posted a wake — drain it so
			// the token doesn't spuriously satisfy the next Wait.
			if !b.state.CompareAndSwap(bellParked, bellIdle) {
				<-b.wake
			}
			return
		}
		<-b.wake
		if ready() {
			return
		}
	}
}

// Stats reports (rings, wakes delivered, rings coalesced).
func (b *doorbell) Stats() (rings, wakes, coalesced uint64) {
	return b.rings.Load(), b.wakes.Load(), b.coalesced.Load()
}
