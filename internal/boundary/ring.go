// RingTransport: the zero-allocation boundary — the one byte-moving pipe
// between the kernel and user domains, built on the paper's zero-copy
// insight:
//
//   - a submission ring (kernel→user commands) and a completion ring
//     (user→kernel responses), each a bounded FIFO of frames;
//   - payload slots resident in the lakeShm region — a ring entry is only
//     a length, the frame bytes are written once into the shared arena and
//     read in place by the receiver;
//   - a doorbell count of the pushes that land on an empty ring, the only
//     sends a waiting receiver would have to be woken for.
//
// One lock per exchange, the transport's, is enough because that is the
// traffic the stack has: a remoted call holds it while lakeLib sends one
// command, pumps lakeD until the submission ring is empty and receives, so
// each ring sees one producer and one consumer at a time and every frame
// lands on an empty ring (TestRingEveryFrameRingsAndNoneWakes pins this).
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
	"lakego/internal/shm"
	"lakego/internal/telemetry"
	"lakego/internal/vtime"
)

// Channel is the boundary pipe contract the remoting layer runs on;
// RingTransport implements it. Its Locker is the exchange lock, held across
// every Send and Recv, one hold per lakeLib↔lakeD exchange.
// Received frames are borrowed views valid only until the next RecvInUser /
// RecvInKernel call in the same direction. Consumers must finish with (or
// copy) a received frame before receiving again.
type Channel interface {
	sync.Locker
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

// DefaultSlotBytes is the payload slot width: large enough for every
// non-bulk frame (commands and responses route bulk data through lakeShm
// buffers already, so frames are small), small enough that a 64-deep ring
// costs 1 MiB of region per direction.
const DefaultSlotBytes = 16 << 10

// ringDir is one direction of the duplex pipe: a bounded FIFO of frames
// over a slot arena, with the consumer's borrow. Frame n occupies slot
// n&(len(lens)-1); a frame longer than slotBytes lives in that slot's
// overflow buffer instead of the arena; its caller serializes access.
type ringDir struct {
	// head and tail count the frames pushed and popped. borrowed marks
	// frame tail-1 as still held by the consumer's last view, so its slot
	// is not free until the next pop.
	head, tail uint64
	borrowed   bool
	lens       []int
	// rings counts pushes onto an empty ring: the doorbell a parked
	// receiver would need.
	rings uint64

	payload []byte   // shm-resident slot arena, len(lens)*slotBytes bytes
	ov      [][]byte // per-slot reusable overflow spill buffers
	// arena is payload's allocation when it is carved from a region. The
	// transport holds it, not just payload, so the region stays mapped
	// for as long as the transport is reachable.
	arena shm.Buffer
}

// push copies f into the next free slot (or that slot's overflow buffer).
// ok is false when every slot is queued or borrowed; rang reports that f
// landed on an empty ring. Zero-allocation once the overflow buffers have
// warmed up.
func (d *ringDir) push(f []byte, slotBytes int) (ok, rang bool) {
	held := d.head - d.tail
	if d.borrowed {
		held++
	}
	if held == uint64(len(d.lens)) {
		return false, false
	}
	slot := int(d.head) & (len(d.lens) - 1)
	if len(f) <= slotBytes {
		copy(d.payload[slot*slotBytes:], f)
	} else {
		d.ov[slot] = append(d.ov[slot][:0], f...)
	}
	d.lens[slot] = len(f)
	rang = d.head == d.tail
	if rang {
		d.rings++
	}
	d.head++
	return true, rang
}

// pop releases the previous borrow and returns a view of the next frame,
// borrowed until the next pop. ok is false when the ring is empty.
func (d *ringDir) pop(slotBytes int) (view []byte, ok bool) {
	d.borrowed = false
	if d.tail == d.head {
		return nil, false
	}
	slot := int(d.tail) & (len(d.lens) - 1)
	d.tail++
	d.borrowed = true
	n := d.lens[slot]
	if n > slotBytes {
		return d.ov[slot][:n], true
	}
	return d.payload[slot*slotBytes : slot*slotBytes+n], true
}

// RingTransport is the descriptor-ring implementation of Channel. The
// steady-state send/receive path performs zero heap allocations: frames
// are copied once into shm payload slots and read in place.
type RingTransport struct {
	// mu is the exchange lock (Lock/Unlock); it guards sub, comp and closed.
	mu sync.Mutex
	// kind is the cost-model row ChargeRoundTrip charges and error text
	// names; it never changes how bytes move.
	kind      Kind
	clock     *vtime.Clock
	slotBytes int

	sub  ringDir // submission: kernel→user (commands)
	comp ringDir // completion: user→kernel (responses)

	fault  atomic.Pointer[faults.Plane]
	closed bool

	// sent / received / queueFull are what Stats reports and what the
	// registry exports; roundTrip is nil with telemetry disabled.
	sent, received, queueFull telemetry.Counter
	roundTrip                 *telemetry.Histogram

	rec *flightrec.Recorder
}

// NewRingTransport builds a ring transport with depth frame slots per
// direction (rounded up to a power of two, minimum 2) and slotBytes-wide
// payload slots, defaulted when <= 0. The two slot arenas are allocated
// from region — the same lakeShm area bulk tensors live in — so frames sit
// in memory both domains already share. region may be nil (tests), in
// which case the arenas are ordinary process memory. The transport charges
// the Ring cost model until SetCostModel says otherwise.
func NewRingTransport(clock *vtime.Clock, region *shm.Region, depth, slotBytes int) (*RingTransport, error) {
	if slotBytes <= 0 {
		slotBytes = DefaultSlotBytes
	}
	slots := 2
	for slots < depth {
		slots <<= 1
	}
	t := &RingTransport{kind: Ring, clock: clock, slotBytes: slotBytes}
	for _, d := range []*ringDir{&t.sub, &t.comp} {
		d.lens = make([]int, slots)
		d.ov = make([][]byte, slots)
		arena := int64(slots) * int64(slotBytes)
		if region != nil {
			buf, err := region.Alloc(arena)
			if err != nil {
				return nil, fmt.Errorf("boundary: ring slot arena: %w", err)
			}
			d.arena, d.payload = buf, buf.Bytes()
		} else {
			d.payload = make([]byte, arena)
		}
	}
	return t, nil
}

// Lock and Unlock take and release the exchange lock.
func (t *RingTransport) Lock()   { t.mu.Lock() }
func (t *RingTransport) Unlock() { t.mu.Unlock() }

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
// directions: rings is the number of sends that landed on an empty ring.
// Nothing parks on the rings, so no wake is ever delivered or coalesced.
func (t *RingTransport) DoorbellStats() (rings, wakes, coalesced uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sub.rings + t.comp.rings, 0, 0
}

// send runs one frame through the fault plane (if armed) and into the
// direction's ring: a drop returns nil (the sender cannot observe in-ring
// loss, exactly like a lossy socket), a duplicate shed by a full ring is
// silent, a full ring on the primary frame is an error.
//
// Frame and doorbell events are recorded only while a fault plane is armed,
// where frames can be dropped, duplicated or corrupted in flight. On a
// healthy channel they would repeat the frame lengths lakeLib's EvCallStart
// and lakeD's EvExecEnd already carry; a full queue is recorded either way.
func (t *RingTransport) send(d *ringDir, msg []byte, dir uint64) error {
	if t.closed {
		return ErrClosed
	}
	plane := t.fault.Load()
	if plane == nil {
		// Fast path: no fault plane, no defensive copy — the bytes go
		// straight into the shm slot.
		if ok, _ := d.push(msg, t.slotBytes); !ok {
			t.queueFull.Inc()
			t.rec.EmitFrame(flightrec.EvQueueFull, msg, dir)
			return fmt.Errorf("boundary: %s queue full", t.kind)
		}
		return nil
	}
	// Chaos path: the plane may mutate, duplicate or drop the frame; give
	// it a private copy. Allocation here is acceptable — the zero-alloc
	// gate covers the un-faulted steady state.
	t.rec.EmitFrame(flightrec.EvFrameSend, msg, dir)
	cp := make([]byte, len(msg))
	copy(cp, msg)
	frames, delay := plane.OnMessage(cp)
	if delay > 0 {
		t.clock.Advance(delay)
	}
	for i, f := range frames {
		ok, rang := d.push(f, t.slotBytes)
		if rang {
			t.rec.EmitFrame(flightrec.EvDoorbell, f, dir)
		}
		if !ok {
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

// recv returns the next frame in d as a view borrowed until the next recv
// in the same direction.
func (t *RingTransport) recv(d *ringDir, dir uint64) ([]byte, bool) {
	view, ok := d.pop(t.slotBytes)
	if ok && t.fault.Load() != nil {
		t.rec.EmitFrame(flightrec.EvFrameRecv, view, dir)
	}
	return view, ok
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

// Close shuts the transport down under the exchange lock. Pending frames
// and the borrows are discarded.
func (t *RingTransport) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	for _, d := range []*ringDir{&t.sub, &t.comp} {
		d.tail, d.borrowed = d.head, false
	}
}
