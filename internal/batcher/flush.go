package batcher

import (
	"time"

	"lakego/internal/cuda"
	"lakego/internal/flightrec"
	"lakego/internal/policy"
	"lakego/internal/remoting"
)

// flushReason tags why a batch was formed.
type flushReason int

const (
	flushFull flushReason = iota
	flushDeadline
)

// Wait blocks until the request is delivered and returns its outputs, one
// slice per submitted item.
//
// Flushes are driven cooperatively by waiters (there is no hidden flusher
// thread, keeping virtual time deterministic): the first waiter whose
// request is still queued becomes the leader, lingers Config.Linger of
// real time so concurrent clients can coalesce into the batch, then
// drives a deadline flush — advancing the virtual clock to the oldest
// request's enqueue time + MaxWait, exactly as a max-wait timer would
// fire. A submission that fills the batch, or finds the clock already past
// the oldest deadline, flushes from Submit and wakes any lingering leader.
func (p *Pending) Wait() ([][]float32, error) {
	m := p.m
	b := m.b
	for {
		m.mu.Lock()
		// A claimed request waits for its flush to deliver it. An unclaimed
		// one behind a leader coalescing this generation waits for the
		// leader to step down — every take that claims a request wakes it —
		// and looks again: its flush may not reach us past staging capacity.
		for !p.delivered && (p.taken || m.leading) {
			m.settled.Wait()
		}
		if p.delivered {
			m.mu.Unlock()
			return p.out, p.err
		}
		m.leading = true
		var full chan struct{}
		if b.cfg.Linger > 0 {
			full = make(chan struct{})
			m.fullSig = full
		}
		m.mu.Unlock()

		if full != nil {
			t := time.NewTimer(b.cfg.Linger)
			select {
			case <-full: // a Submit claimed a batch; ours may be in it
			case <-t.C: // linger expired; drive the deadline flush
			}
			t.Stop()
		}

		m.mu.Lock()
		if m.fullSig == full {
			m.fullSig = nil
		}
		m.leading = false
		m.settled.Broadcast()
		var batch []*Pending
		if !p.taken {
			batch = m.takeLocked()
		}
		m.mu.Unlock()
		if batch != nil {
			b.execute(m, batch, flushDeadline, batch[0].enq+b.cfg.MaxWait)
		}
		// Loop: either our request was in that batch (delivered) or it is
		// still queued behind staging capacity and we lead another round.
	}
}

// execute runs one formed batch to completion and delivers every request.
// Flushes of the same model are serialized: there is one device staging
// area per model, like one CUDA stream per lakeD model context.
//
// firedAt is the virtual instant the flush fired, stamped when the batch
// left the queue: the filling submission's enqueue time for a full flush,
// the oldest member's deadline for a deadline flush (and never later — that
// is when the max-wait timer fires). Queue delay is charged against it, not
// against the clock observed after execMu: while this flush waits there a
// sibling flush of the same model advances the shared clock, which would
// make MaxQueueDelay depend on goroutine scheduling.
func (b *Batcher) execute(m *model, batch []*Pending, reason flushReason, firedAt time.Duration) {
	deadline := batch[0].enq + b.cfg.MaxWait
	if firedAt > deadline {
		firedAt = deadline
	}
	m.execMu.Lock()
	defer m.execMu.Unlock()

	clock := b.rt.Clock()
	if reason == flushDeadline {
		// The max-wait timer fires at the oldest request's deadline; on
		// the virtual clock the flush happens at exactly that instant
		// (no-op if the clock is already past it).
		clock.AdvanceTo(deadline)
	}
	flushAt := clock.Now()
	items := 0
	for _, p := range batch {
		items += p.count
		d := int64(firedAt - p.enq)
		for cur := b.maxDelay.Load(); d > cur; cur = b.maxDelay.Load() {
			if b.maxDelay.CompareAndSwap(cur, d) {
				break
			}
		}
		b.queueDelay.Observe(d)
	}
	b.flushItems.Observe(int64(items))
	// One trace ID per flush: the remoted command and its daemon-side events
	// correlate under it. The batch is the contiguous seq range [first seq,
	// +len) of this model, which is how a dump links members to the flush.
	var ftid uint64
	if b.rec.Enabled() {
		ftid = b.rec.NextTraceID()
	}
	b.rec.Emit(flightrec.DomainBatcher, flightrec.EvFlushStart,
		ftid, batch[0].seq, 0, uint64(len(batch)), uint64(reason), m.specs[0].Fn)
	b.flushes.Add(1)
	if reason == flushFull {
		b.fullFlushes.Add(1)
	} else {
		b.deadlineFlushes.Add(1)
	}

	// Adaptive sizing: the Fig 3 policy sees the formed batch and routes
	// the whole flush to the GPU only when it is profitable and the
	// device is uncontended.
	dec := policy.UseGPU
	if b.cfg.Policy != nil {
		dec = b.cfg.Policy(items)
	}
	var flushErr error
	// perRes is aligned 1:1 with batch when usePer is set (the Into call
	// verifies every response pair's sequence against its entry).
	var perRes []cuda.Result
	usePer := false
	ranOnGPU := false
	if dec == policy.UseGPU {
		b.gpuFlushes.Add(1)
		ranOnGPU = true
		entries := m.entriesScratch[:0]
		for _, p := range batch {
			entries = append(entries, remoting.BatchEntry{
				Seq:     p.seq,
				InOff:   uint64(p.slot.Offset()),
				OutOff:  uint64(p.slot.Offset() + p.outOff),
				Count:   uint32(p.count),
				TraceID: p.tid,
			})
		}
		m.entriesScratch = entries
		// Per-flush placement: on a multi-device pool each launch goes to
		// the least-utilized device's staging spec.
		spec := m.specs[0]
		if b.pool != nil {
			spec = m.specs[b.pool.PlaceFlush()]
		}
		res, r := b.rt.Lib().CuBatchedInferInto(m.mc.Name, spec, entries, ftid, &m.wireScratch)
		switch r {
		case cuda.Success:
			perRes, usePer = res, true
		case cuda.ErrNotReady:
			// lakeD is unavailable (declared dead and not recovered): the
			// kernel must still answer its clients, so the formed batch
			// completes on the CPU fallback at its calibrated cost.
			b.fallbackFlushes.Add(1)
			ranOnGPU = false
			flushErr = m.runCPU(batch)
			clock.Advance(m.mc.CPUFixed + time.Duration(items)*m.mc.CPUPerItem)
		default:
			flushErr = r.Err()
		}
	} else {
		b.cpuFlushes.Add(1)
		flushErr = m.runCPU(batch)
		clock.Advance(m.mc.CPUFixed + time.Duration(items)*m.mc.CPUPerItem)
	}

	now := clock.Now()
	var onGPU uint64
	if ranOnGPU {
		onGPU = 1
	}
	b.rec.Emit(flightrec.DomainBatcher, flightrec.EvFlushEnd,
		ftid, batch[0].seq, 0, uint64(len(batch)), onGPU, 0)
	if flushErr == nil && items > 0 {
		// Per-item execution latency on the path that actually ran — the
		// observed signal the Fig 3 policy can use in place of the model.
		perItem := (now - flushAt) / time.Duration(items)
		if ranOnGPU {
			b.gpuItemLat.ObserveDuration(perItem)
		} else {
			b.cpuItemLat.ObserveDuration(perItem)
		}
	}
	// Every member's rows are cut from one slab, in batch order.
	var slab []float32
	if flushErr == nil {
		slab = make([]float32, items*m.mc.OutputWidth)
	}
	off := 0
	slots := m.slotScratch[:0]
	for i, p := range batch {
		err := flushErr
		if err == nil && usePer {
			if i >= len(perRes) {
				err = cuda.ErrUnknown.Err()
			} else if perRes[i] != cuda.Success {
				err = perRes[i].Err()
			}
		}
		if err == nil {
			p.out, err = p.unpackOut(slab[off:])
		}
		off += p.count * m.mc.OutputWidth
		p.err = err
		p.doneAt = now
		slots = append(slots, p.slot)
	}
	// Every slot goes back under one region lock hold, before any member's
	// client regains the depth it frees.
	b.rt.Region().Free(slots...)
	m.slotScratch = slots
	for _, p := range batch {
		p.c.outstanding.Add(-1)
	}
	m.mu.Lock()
	m.deliverLocked(batch)
	m.mu.Unlock()
}

// runCPU executes a flush on the kernel CPU fallback path: real forward
// passes from each slot's input rows to its output rows on the model's own
// scratch (the caller holds execMu, and charges the calibrated cost).
func (m *model) runCPU(batch []*Pending) error {
	fwd := m.mc.ResolveForward() // resolved once: the whole flush runs one model version
	for _, p := range batch {
		mem := p.slot.Bytes()
		if fwd == nil {
			clear(mem[p.outOff:]) // timing-only: zero logits
		} else if err := m.mc.forwardBytes(fwd, &m.cpuScratch, mem, mem[p.outOff:], p.count); err != nil {
			return err
		}
	}
	return nil
}

// unpackOut copies the request's delivered output rows out of lakeShm (the
// slot is freed on delivery) into the head of slab, the rest of its flush's
// result slab; each row is capped at its own width, so appending to one
// cannot reach the next, in this request or the one after it.
func (p *Pending) unpackOut(slab []float32) ([][]float32, error) {
	w := p.m.mc.OutputWidth
	flat := slab[:p.count*w]
	if err := cuda.ReadFloat32s(flat, p.slot.Bytes()[p.outOff:]); err != nil {
		return nil, err
	}
	out := p.one[:]
	if p.count > 1 {
		out = make([][]float32, p.count)
	}
	for i := range out {
		out[i] = flat[i*w : (i+1)*w : (i+1)*w]
	}
	return out, nil
}
