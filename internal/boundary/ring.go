// RingTransport: the zero-allocation, lock-free boundary — the one
// byte-moving pipe between the kernel and user domains, built on the paper's
// own zero-copy + doorbell insight pushed to its limit:
//
//   - a submission ring (kernel→user commands) and a completion ring
//     (user→kernel responses), each a bounded lock-free MPSC descriptor
//     ring (ringbuf.MPSC);
//   - payload slots resident in the lakeShm region — descriptors carry
//     only (slot, len), the frame bytes are written once into the shared
//     arena and read in place by the receiver;
//   - a doorbell (lockfree.Doorbell) rung only on the empty→nonempty ring
//     transition, so a burst of sends — an entire batcher flush — pays for
//     one futex-style wake.
//
// Receive is borrow-based: RecvInUser / RecvInKernel return a view into
// the slot arena that stays valid until the NEXT Recv call in the same
// direction (which releases the previous slot back to the producers). Both
// consumers satisfy this: lakeD decodes and executes a command
// before its next pump, and lakeLib copies the response out before its
// next receive. Frames wider than a payload slot spill into a per-slot
// reusable overflow buffer — modeling a secondary shm arena — so the
// transport never rejects a frame for size.
package boundary

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lakego/internal/faults"
	"lakego/internal/flightrec"
	"lakego/internal/lockfree"
	"lakego/internal/ringbuf"
	"lakego/internal/shm"
	"lakego/internal/telemetry"
	"lakego/internal/vtime"
)

// Channel is the boundary pipe contract the remoting layer runs on;
// RingTransport implements it.
//
// Received frames are borrowed views valid only until the next RecvInUser /
// RecvInKernel call in the same direction. Consumers must finish with (or
// copy) a received frame before receiving again.
type Channel interface {
	Clock() *vtime.Clock
	SendToUser(msg []byte) error
	RecvInUser() (msg []byte, ok bool)
	SendToKernel(msg []byte) error
	RecvInKernel() (msg []byte, ok bool)
	ChargeRoundTrip(size int) time.Duration
	InjectFaults(p *faults.Plane)
	Instrument(reg *telemetry.Registry, name telemetry.Namer)
	SetFlightRecorder(rec *flightrec.Recorder)
	Stats() (sent, received int64)
	Close()
}

var _ Channel = (*RingTransport)(nil)

// descOverflow marks a descriptor whose payload spilled into the per-slot
// overflow buffer instead of the shm slot arena.
const descOverflow uint16 = 1 << 0

// DefaultSlotBytes is the payload slot width: large enough for every
// non-bulk frame (commands and responses route bulk data through lakeShm
// buffers already, so frames are small), small enough that a 64-deep ring
// costs 1 MiB of region per direction.
const DefaultSlotBytes = 16 << 10

// ringDir is one direction of the duplex pipe: descriptor ring, doorbell,
// slot arena and the single-consumer borrow state.
type ringDir struct {
	ring *ringbuf.MPSC
	bell *lockfree.Doorbell

	payload []byte   // shm-resident slot arena, Cap()*slotBytes bytes
	ov      [][]byte // per-slot reusable overflow spill buffers

	// outstanding tracks published-but-unconsumed frames; the doorbell
	// rings only on its 0→1 edge.
	outstanding atomic.Int64
	seq         atomic.Uint64 // descriptor diagnostic sequence

	// Consumer state. recvMu serializes consumers defensively (the stack
	// already serializes them via lakeLib's call lock); borrow is the
	// popped-but-unreleased ticket backing the last returned view.
	recvMu    sync.Mutex
	borrow    uint64
	hasBorrow bool
}

// RingTransport is the descriptor-ring implementation of Channel. The
// steady-state send/receive path performs zero heap allocations: frames
// are copied once into shm payload slots and read in place.
type RingTransport struct {
	// kind is the cost-model row ChargeRoundTrip charges and error text
	// names; it never changes how bytes move.
	kind      Kind
	clock     *vtime.Clock
	slotBytes int

	sub  ringDir // submission: kernel→user (commands)
	comp ringDir // completion: user→kernel (responses)

	fault  atomic.Pointer[faults.Plane]
	closed atomic.Bool

	// sent / received / queueFull are what Stats reports and what the
	// registry exports; roundTrip is nil with telemetry disabled.
	sent, received, queueFull telemetry.Counter
	roundTrip                 *telemetry.Histogram

	rec *flightrec.Recorder
}

// NewRingTransport builds a ring transport with depth descriptor slots per
// direction (rounded up to a power of two) and slotBytes-wide payload
// slots, both defaulted when <= 0. The two slot arenas are allocated from
// region — the same lakeShm area bulk tensors live in — so descriptors
// index memory both domains already share. region may be nil (tests), in
// which case the arenas are ordinary process memory. The transport charges
// the Ring cost model until SetCostModel says otherwise.
func NewRingTransport(clock *vtime.Clock, region *shm.Region, depth, slotBytes int) (*RingTransport, error) {
	if depth < 1 {
		depth = 1
	}
	if slotBytes <= 0 {
		slotBytes = DefaultSlotBytes
	}
	t := &RingTransport{kind: Ring, clock: clock, slotBytes: slotBytes}
	for _, d := range []*ringDir{&t.sub, &t.comp} {
		d.ring = ringbuf.NewMPSC(depth)
		d.bell = lockfree.NewDoorbell()
		d.ov = make([][]byte, d.ring.Cap())
		arena := int64(d.ring.Cap()) * int64(slotBytes)
		if region != nil {
			buf, err := region.Alloc(arena)
			if err != nil {
				return nil, fmt.Errorf("boundary: ring slot arena: %w", err)
			}
			d.payload = buf.Bytes()
		} else {
			d.payload = make([]byte, arena)
		}
	}
	return t, nil
}

// SetCostModel selects the Table-2 / Fig-6 row (or Ring) whose modeled
// round-trip cost ChargeRoundTrip charges. Must be called during runtime
// construction, before any traffic.
func (t *RingTransport) SetCostModel(k Kind) { t.kind = k }

// Clock returns the virtual clock the transport charges.
func (t *RingTransport) Clock() *vtime.Clock { return t.clock }

// Instrument declares the transport's series on reg, labeled with the
// cost-model row. Must be called during runtime construction, after
// SetCostModel and before any traffic: the hot paths read roundTrip
// unlocked.
func (t *RingTransport) Instrument(reg *telemetry.Registry, name telemetry.Namer) {
	ch := `channel="` + t.kind.String() + `"`
	reg.AttachCounter(name("lake_boundary_sent_total", ch), "Kernel->user frames accepted into the command channel.", &t.sent)
	reg.AttachCounter(name("lake_boundary_received_total", ch), "User->kernel frames delivered to the kernel side.", &t.received)
	reg.AttachCounter(name("lake_boundary_queue_full_total", ch), "Sends rejected by a full channel queue.", &t.queueFull)
	t.roundTrip = reg.Histogram(name("lake_boundary_roundtrip_ns", ch), "Modeled per-command round-trip cost (virtual ns).", telemetry.DefaultLatencyBuckets())
}

// SetFlightRecorder attaches the flight recorder. Must be called during
// runtime construction, before any traffic.
func (t *RingTransport) SetFlightRecorder(rec *flightrec.Recorder) { t.rec = rec }

// InjectFaults attaches a fault plane: every subsequent frame in either
// direction is subject to the plane's drop / corrupt / duplicate / delay
// decisions at the ring layer. A nil plane detaches and restores the
// zero-allocation fast path.
func (t *RingTransport) InjectFaults(p *faults.Plane) { t.fault.Store(p) }

// Stats returns messages sent from kernel and received back.
func (t *RingTransport) Stats() (sent, received int64) {
	return t.sent.Value(), t.received.Value()
}

// DoorbellStats reports (rings, wakes, coalesced) summed over both
// directions: rings is the number of empty→nonempty transitions that rang
// a doorbell, wakes the wakeups actually delivered to a parked waiter,
// coalesced the rings absorbed by an already-pending wake.
func (t *RingTransport) DoorbellStats() (rings, wakes, coalesced uint64) {
	for _, d := range []*ringDir{&t.sub, &t.comp} {
		r, w, c := d.bell.Stats()
		rings, wakes, coalesced = rings+r, wakes+w, coalesced+c
	}
	return rings, wakes, coalesced
}

// enqueue reserves a descriptor, copies f into its payload slot (or the
// slot's overflow buffer) and publishes. Returns false when the ring is
// full. Zero-allocation once the overflow buffers have warmed up.
func (t *RingTransport) enqueue(d *ringDir, f []byte, dir uint64) bool {
	ticket, ok := d.ring.Reserve()
	if !ok {
		return false
	}
	slot := uint16(ticket) & uint16(d.ring.Cap()-1)
	var flags uint16
	if len(f) <= t.slotBytes {
		copy(d.payload[int(slot)*t.slotBytes:], f)
	} else {
		d.ov[slot] = append(d.ov[slot][:0], f...)
		flags = descOverflow
	}
	d.ring.Publish(ticket, ringbuf.Desc{
		Seq:   d.seq.Add(1),
		Slot:  slot,
		Flags: flags,
		Len:   uint32(len(f)),
	})
	if d.outstanding.Add(1) == 1 {
		d.bell.Ring()
		t.rec.EmitFrame(flightrec.EvDoorbell, f, dir)
	}
	return true
}

// send runs one frame through the fault plane (if armed) and into the
// direction's ring: a drop returns nil (the sender cannot observe in-ring
// loss, exactly like a lossy socket), a duplicate shed by a full ring is
// silent, a full ring on the primary frame is an error.
func (t *RingTransport) send(d *ringDir, msg []byte, dir uint64) error {
	if t.closed.Load() {
		return ErrClosed
	}
	t.rec.EmitFrame(flightrec.EvFrameSend, msg, dir)
	plane := t.fault.Load()
	if plane == nil {
		// Fast path: no fault plane, no defensive copy — the bytes go
		// straight into the shm slot.
		if !t.enqueue(d, msg, dir) {
			t.queueFull.Inc()
			t.rec.EmitFrame(flightrec.EvQueueFull, msg, dir)
			return fmt.Errorf("boundary: %s queue full", t.kind)
		}
		return nil
	}
	// Chaos path: the plane may mutate, duplicate or drop the frame; give
	// it a private copy. Allocation here is acceptable — the zero-alloc
	// gate covers the un-faulted steady state.
	cp := make([]byte, len(msg))
	copy(cp, msg)
	frames, delay := plane.OnMessage(cp)
	if delay > 0 {
		t.clock.Advance(delay)
	}
	for i, f := range frames {
		if !t.enqueue(d, f, dir) {
			if i > 0 {
				return nil // duplicate shed by a full ring: not an error
			}
			t.queueFull.Inc()
			t.rec.EmitFrame(flightrec.EvQueueFull, f, dir)
			return fmt.Errorf("boundary: %s queue full", t.kind)
		}
	}
	return nil
}

// recv pops the next descriptor and returns a borrowed view of its
// payload. The previous borrow in the same direction is released first —
// this is what bounds view lifetime to "until the next Recv".
func (t *RingTransport) recv(d *ringDir, dir uint64) ([]byte, bool) {
	d.recvMu.Lock()
	defer d.recvMu.Unlock()
	if d.hasBorrow {
		d.ring.Release(d.borrow)
		d.hasBorrow = false
	}
	desc, ticket, ok := d.ring.Pop()
	if !ok {
		return nil, false
	}
	d.outstanding.Add(-1)
	d.borrow, d.hasBorrow = ticket, true
	var view []byte
	if desc.Flags&descOverflow != 0 {
		view = d.ov[desc.Slot][:desc.Len]
	} else {
		off := int(desc.Slot) * t.slotBytes
		view = d.payload[off : off+int(desc.Len)]
	}
	t.rec.EmitFrame(flightrec.EvFrameRecv, view, dir)
	return view, true
}

// SendToUser transmits msg from the kernel domain over the submission
// ring. Data movement itself is free of clock charges: the remoting layer
// charges each command's modeled round-trip cost once via ChargeRoundTrip,
// mirroring how Fig 6 accounts per-message overhead.
func (t *RingTransport) SendToUser(msg []byte) error {
	if err := t.send(&t.sub, msg, dirToUser); err != nil {
		return err
	}
	t.sent.Inc()
	return nil
}

// RecvInUser delivers the next kernel→user frame as a borrowed view (valid
// until the next RecvInUser). ok is false when the submission ring is
// empty.
func (t *RingTransport) RecvInUser() (msg []byte, ok bool) {
	return t.recv(&t.sub, dirToUser)
}

// SendToKernel transmits a response from the user domain over the
// completion ring, subject to the same fault plane as SendToUser.
func (t *RingTransport) SendToKernel(msg []byte) error {
	return t.send(&t.comp, msg, dirToKernel)
}

// RecvInKernel delivers the next user→kernel frame as a borrowed view
// (valid until the next RecvInKernel).
func (t *RingTransport) RecvInKernel() (msg []byte, ok bool) {
	m, ok := t.recv(&t.comp, dirToKernel)
	if ok {
		t.received.Inc()
	}
	return m, ok
}

// ChargeRoundTrip advances the clock by the configured cost model's
// round-trip cost for a command of the given size. The remoting layer calls
// it once per remoted API invocation; the actual bytes flow through
// Send/Recv above.
func (t *RingTransport) ChargeRoundTrip(size int) time.Duration {
	d := MessageRoundTrip(t.kind, size)
	t.clock.Advance(d)
	t.roundTrip.ObserveDuration(d)
	return d
}

// Close shuts the transport down. Pending descriptors are discarded.
func (t *RingTransport) Close() {
	if t.closed.Swap(true) {
		return
	}
	for _, d := range []*ringDir{&t.sub, &t.comp} {
		d.recvMu.Lock()
		if d.hasBorrow {
			d.ring.Release(d.borrow)
			d.hasBorrow = false
		}
		for {
			_, ticket, ok := d.ring.Pop()
			if !ok {
				break
			}
			d.outstanding.Add(-1)
			d.ring.Release(ticket)
		}
		d.recvMu.Unlock()
	}
}
