package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"lakego/internal/batcher"
	"lakego/internal/fleet"
	"lakego/internal/linnos"
	"lakego/internal/mllb"
)

// The open-loop driver. internal/loadgen has one, but its Scenario cannot
// select the ring transport, so the benchmark carries its own over the same
// public calls (Client.Route / Submit, Shard.Clock().AdvanceTo,
// Pending.Wait) and with the same discipline: arrivals come from a seeded
// schedule on the virtual clock, sojourn is timed from the *scheduled*
// arrival (a shard clock already ahead of it is charged as backlog delay),
// sheds and rejects are never retried, and a timer pump delivers requests
// whose batcher deadline precedes the next arrival.

const (
	openGroups     = 16   // tenant groups per class
	openQueueBound = 64   // per-tenant outstanding bound; arrivals beyond it are shed
	openFleetCap   = 1024 // fleet-wide fair-share cap; over-share tenants get ErrBackpressure at it
	openInflight   = 4096 // driver-side bound on uncollected requests
	linnosShare    = 0.70 // class mix: linnos 70 %, mllb 30 %
)

// openShape is an arrival process: a base Poisson rate, a warm-up, and a
// timed phase with an optional rate burst. The traced pass is a quarter of
// the timed phase with the burst at the same relative place.
type openShape struct {
	rate        float64 // arrivals per virtual second
	warm, timed time.Duration
	burstAt     float64 // burst start and length as fractions of the phase
	burstLen    float64
	burstMul    float64
}

var (
	openLowShape = openShape{rate: 100_000, warm: pastWindow, timed: 2500 * time.Millisecond}
	// The burst offers 3.2 M req/virtual-s against ~2.7 M modelled capacity.
	openBurstShape = openShape{rate: 800_000, warm: 250 * time.Millisecond, timed: time.Second,
		burstAt: 0.35, burstLen: 0.04, burstMul: 4}
)

// arrival is one scheduled request.
type arrival struct {
	at    time.Duration
	class uint8 // 0 = linnos, 1 = mllb
	group uint8
	key   uint8 // pool vector
}

// schedule is the whole arrival sequence plus where its phases end.
type schedule struct {
	arrivals      []arrival
	warm, timed   int // arrival counts; the rest is the traced pass
	timedFrom     time.Duration
	timedDuration time.Duration
}

// segment is a stretch of constant arrival rate ending at end.
type segment struct {
	end  time.Duration
	rate float64
}

func (sh openShape) segments(sz sizing) (segs []segment, warmEnd, timedEnd time.Duration) {
	warmEnd = time.Duration(float64(sh.warm) * sz.warm)
	timed := time.Duration(float64(sh.timed) * sz.ops)
	timedEnd = warmEnd + timed
	segs = append(segs, segment{warmEnd, sh.rate})
	phase := func(from, length time.Duration) {
		if sh.burstLen > 0 {
			b0 := from + time.Duration(sh.burstAt*float64(length))
			b1 := b0 + time.Duration(sh.burstLen*float64(length))
			segs = append(segs, segment{b0, sh.rate}, segment{b1, sh.rate * sh.burstMul})
		}
		segs = append(segs, segment{from + length, sh.rate})
	}
	phase(warmEnd, timed)
	phase(timedEnd, timed/4)
	return segs, warmEnd, timedEnd
}

// genSchedule draws the arrival sequence: a unit-rate Poisson process in
// cumulative-intensity space mapped back through the piecewise-constant
// rate, so it is exact across rate changes. It is a pure function of its
// arguments.
func genSchedule(seed int64, sh openShape, sz sizing) *schedule {
	rng := rand.New(rand.NewSource(seed))
	segs, warmEnd, timedEnd := sh.segments(sz)
	s := &schedule{timedFrom: warmEnd, timedDuration: timedEnd - warmEnd}
	t := 0.0 // seconds
	for _, seg := range segs {
		end := seg.end.Seconds()
		for {
			gap := rng.ExpFloat64() / seg.rate
			if t+gap >= end {
				// Memoryless: the remainder restarts at the next segment's rate.
				t = end
				break
			}
			t += gap
			a := arrival{at: time.Duration(t * float64(time.Second))}
			if rng.Float64() >= linnosShare {
				a.class = 1
			}
			a.group = uint8(rng.Intn(openGroups))
			a.key = uint8(rng.Intn(poolSize))
			s.arrivals = append(s.arrivals, a)
			switch {
			case a.at < warmEnd:
				s.warm++
			case a.at < timedEnd:
				s.timed++
			}
		}
	}
	return s
}

// digest fingerprints a schedule.
func (s *schedule) digest() uint64 {
	h := fnv.New64a()
	var b [11]byte
	for _, a := range s.arrivals {
		for i := 0; i < 8; i++ {
			b[i] = byte(uint64(a.at) >> (8 * i))
		}
		b[8], b[9], b[10] = a.class, a.group, a.key
		h.Write(b[:])
	}
	return h.Sum64()
}

// flight is one submitted, uncollected request.
type flight struct {
	p     *fleet.Pending
	base  time.Duration // backlog delay charged before enqueue
	enq   time.Duration // virtual enqueue instant; enq+MaxWait is its flush deadline
	class uint8
	key   uint8
	timed bool
}

type openLoop struct {
	base
	sched   *schedule
	next    int
	models  [2]*model
	clients [2][openGroups]*fleet.Client

	inflight []flight
	head     int
}

func bootOpenLow(spec *workloadSpec, seed int64, sz sizing) (driver, error) {
	return bootOpen(spec, seed, sz, openLowShape)
}

func bootOpenBurst(spec *workloadSpec, seed int64, sz sizing) (driver, error) {
	return bootOpen(spec, seed, sz, openBurstShape)
}

func bootOpen(spec *workloadSpec, seed int64, sz sizing, sh openShape) (driver, error) {
	rng := rand.New(rand.NewSource(seed))
	d := &openLoop{}
	d.models[0] = newModel("linnos", linnosNetSeed, linnos.Base.Sizes(), rng)
	d.models[1] = newModel("mllb", mllbNetSeed, mllb.Sizes(), rng)
	d.models[0].share, d.models[1].share = linnosShare, 1-linnosShare
	fl, err := bootFleet(openFleetCap, d.models[0], d.models[1])
	if err != nil {
		return nil, err
	}
	d.st = fleetStack(fl, d.models[0], d.models[1])
	// Creation order (class, then group) fixes round-robin placement.
	for c, m := range d.models {
		for g := 0; g < openGroups; g++ {
			d.clients[c][g] = fl.Client(fmt.Sprintf("%s:g%d", m.name, g))
			d.st.clients = append(d.st.clients, d.clients[c][g])
		}
	}
	d.sched = genSchedule(seed+1, sh, sz) // a stream of its own, not the pools'
	d.t = tally{
		budget:  spec.budget,
		lat:     make([]int64, 0, d.sched.timed),
		backlog: make([]int64, 0, d.sched.timed),
	}
	d.inflight = make([]flight, 0, 4*openInflight)
	return d, nil
}

func (d *openLoop) warm() error {
	for d.next < d.sched.warm {
		if err := d.step(nil); err != nil {
			return err
		}
	}
	return nil
}

func (d *openLoop) steps() (int, int, int) {
	// arrival, Route, Submit and, on average, one Wait.
	return d.sched.timed, len(d.sched.arrivals) - d.sched.warm - d.sched.timed, 4
}

// step handles one scheduled arrival.
func (d *openLoop) step(tr *tracer) error {
	a := d.sched.arrivals[d.next]
	d.next++
	req := uint64(d.next)
	top := tr.begin("arrival", req)
	defer tr.end(top)
	// Timer pump: lakeD's max-wait timer would have delivered any batch
	// whose oldest request's deadline precedes this arrival.
	for d.head < len(d.inflight) && d.inflight[d.head].enq+fleetMaxWait <= a.at {
		d.completeOldest(tr, req)
	}
	timed := d.t.on
	if timed {
		d.t.attempted++
	}
	cl := d.clients[a.class][a.group]
	if cl.Tenant().Outstanding() >= openQueueBound {
		if timed {
			d.t.shed++
		}
		return nil
	}
	id := tr.begin("Route", req)
	sh, err := cl.Route()
	tr.end(id)
	if err != nil {
		return err
	}
	// Shard clock = max(service backlog, arrival instant).
	base := sh.Clock().AdvanceTo(a.at) - a.at
	m := d.models[a.class]
	id, flushes := d.st.beginCall(tr, "Submit", req)
	p, err := cl.Submit(m.name, m.items[a.key])
	d.st.endCall(tr, id, "Submit", flushes)
	if errors.Is(err, batcher.ErrBackpressure) {
		if timed {
			d.t.rejected++
		}
		return nil
	}
	if err != nil {
		return err
	}
	d.inflight = append(d.inflight, flight{p: p, base: base, enq: a.at + base, class: a.class, key: a.key, timed: timed})
	if len(d.inflight)-d.head > openInflight {
		d.completeOldest(tr, req)
	}
	return nil
}

// completeOldest waits for the oldest in-flight request (FIFO keeps
// collection order deterministic; Wait drives any pending deadline flush).
func (d *openLoop) completeOldest(tr *tracer, req uint64) {
	f := d.inflight[d.head]
	d.inflight[d.head] = flight{}
	d.head++
	if d.head >= 2*openInflight {
		n := copy(d.inflight, d.inflight[d.head:])
		d.inflight = d.inflight[:n]
		d.head = 0
	}
	id, flushes := d.st.beginCall(tr, "Wait", req)
	out, err := f.p.Wait()
	d.st.endCall(tr, id, "Wait", flushes)
	if !f.timed {
		return
	}
	if err != nil {
		d.t.failed++
		return
	}
	d.t.backlog = append(d.t.backlog, int64(f.base))
	d.t.deliver(1, disagreements(out[0], d.models[f.class].ref[f.key]), f.base+f.p.Latency())
}

func (d *openLoop) drain(tr *tracer) error {
	for d.head < len(d.inflight) {
		d.completeOldest(tr, 0)
	}
	return nil
}
