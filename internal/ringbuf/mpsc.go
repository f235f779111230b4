// Package ringbuf is the lock-free MPSC descriptor ring: the wire structure
// behind the boundary's ring transport — a bounded multi-producer
// single-consumer queue of fixed-size frame descriptors, indexing payload
// slots that live in lakeShm.
//
// The algorithm is Vyukov's bounded queue specialized to one consumer. Each
// slot carries a sequence word that doubles as the publication fence:
//
//   - empty, ready for the producer of ticket pos:   seq == pos
//   - full, ready for the consumer at ticket pos:    seq == pos+1
//   - consumed, ready for producer pos+capacity:     seq == pos+capacity
//
// Producers claim a ticket with a CAS on head, write the descriptor words
// with plain stores, then publish with a release store of seq = pos+1. The
// consumer observes seq with an acquire load, so the descriptor words (and,
// in the transport, the payload bytes the descriptor indexes) happen-before
// the pop. Go's sync/atomic provides sequentially consistent operations,
// which subsume the acquire/release pairs this protocol needs; the full
// argument is written out in DESIGN.md ("Ring transport").
//
// Consumption is split into Pop and Release so the consumer can borrow the
// slot's payload without copying: Pop hands back the descriptor and its
// ticket while the slot stays reserved; Release(ticket) stores
// seq = pos+capacity, returning the slot (and its payload area) to the
// producers. A consumer that never releases stalls producers at the ring
// boundary — exactly the backpressure a full socket buffer would apply.
package ringbuf

import (
	"fmt"
	"sync/atomic"
)

// Desc is one fixed-size frame descriptor. It is the only thing that
// crosses the ring: payload bytes stay in their shm slot and are located by
// the (Slot, Len) pair.
type Desc struct {
	// Seq is the wire sequence of the frame (diagnostic tag; the transport
	// stamps it so torn or stale descriptors are attributable).
	Seq uint64
	// Slot is the payload slot ordinal the frame occupies.
	Slot uint16
	// Flags carries transport bits (direction, overflow spill).
	Flags uint16
	// Len is the payload length in bytes.
	Len uint32
}

// descWords is the descriptor's packed size: every descriptor is exactly
// two uint64 stores/loads, so a torn read is confined to word granularity
// and detectable via the slot sequence protocol.
const descWords = 2

// EncodeDesc packs d into its two ring words: word 0 is Len in the high 32
// bits, Slot in bits 16-31 and Flags in bits 0-15; word 1 is Seq. The
// packing is bijective — DecodeDesc inverts it exactly for every input —
// which FuzzRingDescriptor pins down.
func EncodeDesc(d Desc) [descWords]uint64 {
	return [descWords]uint64{
		uint64(d.Len)<<32 | uint64(d.Slot)<<16 | uint64(d.Flags),
		d.Seq,
	}
}

// DecodeDesc unpacks the two ring words produced by EncodeDesc.
func DecodeDesc(w [descWords]uint64) Desc {
	return Desc{
		Seq:   w[1],
		Slot:  uint16(w[0] >> 16),
		Flags: uint16(w[0]),
		Len:   uint32(w[0] >> 32),
	}
}

// mpscSlot is one ring cell: the sequence word plus the packed descriptor.
// atomic.Uint64 forces 8-byte alignment of the whole struct (the compiler's
// align64 rule), so the CAS/load/store words stay atomic on 32-bit
// platforms too — the CI lint job cross-builds GOARCH=386 to keep it that
// way.
type mpscSlot struct {
	seq atomic.Uint64
	w   [descWords]uint64
}

// cachePad separates the producer and consumer cursors so they do not
// false-share a cache line.
type cachePad [7]uint64

// MPSC is a bounded lock-free multi-producer single-consumer descriptor
// ring. Push is safe for any number of concurrent producers; Pop/Release
// must be called from one consumer at a time (the transport's receive side
// serializes on the protocol's demux lock, exactly like the prototype's
// per-socket Netlink reader).
type MPSC struct {
	mask uint64
	slot []mpscSlot

	_    cachePad
	head atomic.Uint64 // next producer ticket
	_    cachePad
	tail uint64 // next consumer ticket (single consumer: plain)
}

// NewMPSC returns a ring with the given capacity, rounded up to a power of
// two (minimum 2, maximum 1<<16 so Desc.Slot can index every slot).
func NewMPSC(capacity int) *MPSC {
	if capacity < 2 {
		capacity = 2
	}
	if capacity > 1<<16 {
		panic(fmt.Sprintf("ringbuf: MPSC capacity %d exceeds %d", capacity, 1<<16))
	}
	c := 2
	for c < capacity {
		c <<= 1
	}
	r := &MPSC{mask: uint64(c - 1), slot: make([]mpscSlot, c)}
	for i := range r.slot {
		r.slot[i].seq.Store(uint64(i))
	}
	return r
}

// Cap returns the ring's slot count.
func (r *MPSC) Cap() int { return len(r.slot) }

// Len returns the number of published, unconsumed descriptors. It is a
// racy snapshot, only exact when producers and the consumer are quiescent.
func (r *MPSC) Len() int {
	n := int(r.head.Load() - atomic.LoadUint64(&r.tail))
	if n < 0 {
		return 0
	}
	return n
}

// Reserve claims the next producer ticket without publishing it. The
// caller owns slot ticket&(Cap()-1) — and, in the transport, the payload
// area that slot indexes — until Publish(ticket, d) makes it visible to the
// consumer. Returns ok=false when the ring is full (including slots still
// borrowed by the consumer). Safe for concurrent producers; never blocks,
// never allocates.
//
// Every successful Reserve MUST be followed by a Publish: tickets are
// consumed in order, so an unpublished ticket wedges the consumer behind
// it.
func (r *MPSC) Reserve() (ticket uint64, ok bool) {
	pos := r.head.Load()
	for {
		s := &r.slot[pos&r.mask]
		seq := s.seq.Load()
		switch dif := int64(seq - pos); {
		case dif == 0:
			if r.head.CompareAndSwap(pos, pos+1) {
				return pos, true
			}
			pos = r.head.Load()
		case dif < 0:
			// The slot is a full lap behind: the ring is full (or the
			// consumer is sitting on a borrowed slot).
			return 0, false
		default:
			// Another producer claimed this ticket; reload and retry.
			pos = r.head.Load()
		}
	}
}

// Publish stores d into the reserved ticket's slot and makes it visible to
// the consumer. The seq store is the release fence: every write the
// producer made before Publish (descriptor words, payload bytes in the
// indexed slot) happens-before the consumer's Pop of this ticket.
func (r *MPSC) Publish(ticket uint64, d Desc) {
	s := &r.slot[ticket&r.mask]
	s.w = EncodeDesc(d)
	s.seq.Store(ticket + 1)
}

// Push is Reserve+Publish in one step, for producers whose payload does not
// live in the slot. Returns false when the ring is full.
func (r *MPSC) Push(d Desc) bool {
	pos, ok := r.Reserve()
	if !ok {
		return false
	}
	r.Publish(pos, d)
	return true
}

// Pop takes the next published descriptor without releasing its slot: the
// returned ticket keeps the slot (and the payload it indexes) reserved
// until Release(ticket). ok is false when the ring is empty. Single
// consumer only.
func (r *MPSC) Pop() (d Desc, ticket uint64, ok bool) {
	pos := atomic.LoadUint64(&r.tail)
	s := &r.slot[pos&r.mask]
	if s.seq.Load() != pos+1 {
		return Desc{}, 0, false
	}
	d = DecodeDesc(s.w)
	atomic.StoreUint64(&r.tail, pos+1)
	return d, pos, true
}

// Release returns ticket's slot to the producers. Must be called exactly
// once per successful Pop, in Pop order.
func (r *MPSC) Release(ticket uint64) {
	r.slot[ticket&r.mask].seq.Store(ticket + r.mask + 1)
}
