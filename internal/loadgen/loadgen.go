package loadgen

import (
	"errors"
	"fmt"
	"math"
	"time"

	"lakego/internal/batcher"
	"lakego/internal/core"
	"lakego/internal/faults"
	"lakego/internal/fleet"
	"lakego/internal/flightrec"
	"lakego/internal/gpupool"
)

// recorderRing sizes the fleet flight recorder's per-domain rings for a
// macro run: big enough that the stitched stage breakdown covers a
// representative slice of the replay even at high request counts.
const recorderRing = 1 << 15

// Run replays the scenario to completion against a freshly booted fleet
// and reports results. The replay is single-threaded over a deterministic
// event heap on the virtual clock, so a fixed-seed run produces
// byte-identical results (see Result.BenchJSON) run over run.
func Run(s *Scenario) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	e, err := newEngine(s)
	if err != nil {
		return nil, err
	}
	defer e.fleet.Close()
	if err := e.drive(); err != nil {
		return nil, err
	}
	return e.collect(), nil
}

// flight is one submitted-but-uncollected request.
type flight struct {
	p     *fleet.Pending
	class int32
	// base is backlog delay charged before enqueue: the routed shard's
	// clock at submit minus the scheduled arrival. Nonzero exactly when
	// the shard's service timeline had run ahead of the arrival timeline —
	// the open-loop overload signal a closed-loop driver never sees.
	base time.Duration
	// enq is the virtual enqueue instant (arrival + base); enq + MaxWait
	// is the request's deadline-flush instant, which the driver's timer
	// pump uses to deliver it no later than a daemon's max-wait timer
	// would have.
	enq time.Duration
}

// engine is one replay's mutable state. Everything is driven from a
// single goroutine; the only concurrency is inside the fleet (batch
// execution), which the virtual clock keeps deterministic.
type engine struct {
	s      *Scenario
	window time.Duration
	peak   float64

	fleet   *fleet.Fleet
	clients [][]*fleet.Client // [class][group] submission handles

	// Per-class constants.
	mixName []string
	width   []int
	meanGap []time.Duration // candidate inter-arrival mean at the thinning envelope
	counts  []int

	churnMean time.Duration
	reconnect time.Duration
	maxWait   time.Duration

	h        eventHeap
	inflight []flight
	head     int

	// Per-class tallies.
	arrivals  []int64
	shed      []int64
	failed    []int64
	completed []int64
	samples   [][]int64 // sojourn ns per completed request
	churned   int64
}

func newEngine(s *Scenario) (*engine, error) {
	policy, err := gpupool.ParsePolicy(s.RouterPolicy)
	if err != nil {
		return nil, err
	}
	rcfg := core.Config{
		NumDevices:         s.Devices,
		NumShards:          s.Shards,
		RouterPolicy:       policy,
		RouterSeed:         s.RouterSeed,
		PoolSeed:           s.Seed,
		FlightRecorderSize: recorderRing,
	}
	if f := s.Faults; f != nil {
		rcfg.Faults = &faults.Mix{
			Seed: f.Seed, Drop: f.Drop, Corrupt: f.Corrupt,
			Duplicate: f.Duplicate, Crash: f.Crash,
		}
	}
	bcfg := batcher.Config{
		MaxBatch: s.Batcher.MaxBatch,
		MaxWait:  time.Duration(s.Batcher.MaxWaitUS * float64(time.Microsecond)),
		// Linger 0: deadline flushes happen on the first Wait, with no
		// wall-clock window — scheduling slack must not shape a replay.
		Linger:      0,
		ClientDepth: s.Batcher.ClientDepth,
	}
	fl, err := fleet.New(fleet.Config{
		Runtime:        rcfg,
		Batcher:        bcfg,
		MaxOutstanding: s.FleetMaxOutstanding,
	})
	if err != nil {
		return nil, err
	}

	e := &engine{
		s:         s,
		window:    s.Duration(),
		peak:      s.peakFactor(),
		fleet:     fl,
		clients:   make([][]*fleet.Client, len(s.Tenants)),
		mixName:   make([]string, len(s.Tenants)),
		width:     make([]int, len(s.Tenants)),
		meanGap:   make([]time.Duration, len(s.Tenants)),
		counts:    make([]int, len(s.Tenants)),
		arrivals:  make([]int64, len(s.Tenants)),
		shed:      make([]int64, len(s.Tenants)),
		failed:    make([]int64, len(s.Tenants)),
		completed: make([]int64, len(s.Tenants)),
		samples:   make([][]int64, len(s.Tenants)),
		maxWait:   bcfg.MaxWait,
	}
	if c := s.Churn; c != nil {
		e.churnMean = time.Duration(c.MeanSessionMS * float64(time.Millisecond))
		e.reconnect = time.Duration(c.ReconnectMS * float64(time.Millisecond))
	}

	// Register each mix's model once, in MixNames order (map iteration
	// must not decide registration order in a deterministic replay).
	need := make(map[string]int)
	for i := range s.Tenants {
		need[s.Tenants[i].Mix] = 0
	}
	for _, m := range MixNames() {
		if _, ok := need[m]; !ok {
			continue
		}
		mc, err := classModel(m)
		if err != nil {
			fl.Close()
			return nil, err
		}
		if err := fl.RegisterModel(mc); err != nil {
			fl.Close()
			return nil, err
		}
		need[m] = mc.InputWidth
	}

	// Tenant groups: the class's clients share Groups fleet admission
	// identities, the way many connections share one cgroup. Creation
	// order (class, then group) fixes placement order.
	for ci := range s.Tenants {
		tc := &s.Tenants[ci]
		e.mixName[ci] = tc.Mix
		e.width[ci] = need[tc.Mix]
		e.clients[ci] = make([]*fleet.Client, tc.Groups)
		for g := 0; g < tc.Groups; g++ {
			t := fl.Tenant(fmt.Sprintf("%s:g%d", tc.Name, g), fleet.TenantConfig{
				Weight:         tc.Weight,
				MaxOutstanding: tc.MaxOutstanding,
			})
			e.clients[ci][g] = fl.Client(t.Name())
		}
	}

	e.buildPopulation()
	return e, nil
}

// buildPopulation sizes each class's slice of the client array, draws
// every client's group, session and first arrival, and heapifies the
// ones that arrive inside the window.
func (e *engine) buildPopulation() {
	s := e.s
	total := 0
	for ci := range s.Tenants {
		n := int(s.Tenants[ci].Fraction * float64(s.Clients))
		e.counts[ci] = n
		total += n
		if n > 0 {
			// Spread the class's aggregate rate over its clients; candidate
			// arrivals are drawn at the thinning envelope rate.
			perClient := s.classRate(&s.Tenants[ci]) / float64(n)
			e.meanGap[ci] = time.Duration(float64(time.Second) / (perClient * e.peak))
		}
	}
	e.h.clients = make([]client, total)
	e.h.idx = make([]int32, 0, total)
	id := int32(0)
	for ci := range s.Tenants {
		groups := uint64(s.Tenants[ci].Groups)
		for k := 0; k < e.counts[ci]; k++ {
			c := &e.h.clients[id]
			c.class = int32(ci)
			c.group = int32(mix(s.Seed, id, 0, 0, saltGroup) % groups)
			c.sessionEnd = math.MaxInt64
			if e.churnMean > 0 {
				c.sessionEnd = expDur(mix(s.Seed, id, 0, 0, saltSession), e.churnMean)
			}
			c.next = e.nextArrival(id, c, 0)
			if c.next < e.window {
				e.h.idx = append(e.h.idx, id)
			}
			id++
		}
	}
	e.h.heapify()
}

// nextArrival draws the client's next arrival after from, by thinning: a
// candidate Poisson stream at the envelope rate, each candidate accepted
// with probability rateFactor(t)/peak — the standard nonhomogeneous
// Poisson construction, and here also the trick that keeps a diurnal
// curve or a burst from needing any per-client state. Returns the window
// end when the client never arrives again.
func (e *engine) nextArrival(id int32, c *client, from time.Duration) time.Duration {
	t := from
	for {
		c.draws++
		t += expDur(mix(e.s.Seed, id, c.gen, c.draws, saltArrival), e.meanGap[c.class])
		if t >= e.window || t < from { // t < from: duration overflow
			return e.window
		}
		c.draws++
		if uniform(mix(e.s.Seed, id, c.gen, c.draws, saltAccept))*e.peak <= e.s.rateFactor(t) {
			return t
		}
	}
}

// drive pops arrivals in virtual-time order until the window closes for
// every client, then drains the in-flight tail.
func (e *engine) drive() error {
	for e.h.len() > 0 {
		id := e.h.peek()
		c := &e.h.clients[id]
		at := c.next
		// Timer pump: a daemon's max-wait timer delivers any batch whose
		// oldest request's deadline precedes this arrival. Waiting here
		// drives that same deadline flush while the shard clock is still
		// at the deadline — without it, a low-rate class's requests would
		// sit queued until the next same-model submission (or the drain)
		// finally drives the flush, measuring multi-millisecond sojourns
		// that no real timer-equipped system would produce.
		for e.head < len(e.inflight) && e.inflight[e.head].enq+e.maxWait <= at {
			e.completeOldest()
		}
		if at > c.sessionEnd {
			e.churn(id, c, at)
			continue
		}
		if err := e.arrive(id, c, at); err != nil {
			return err
		}
		c.next = e.nextArrival(id, c, at)
		if c.next >= e.window {
			e.h.pop()
		} else {
			e.h.fix()
		}
	}
	for e.head < len(e.inflight) {
		e.completeOldest()
	}
	return nil
}

// churn replaces a client whose session lapsed: a new generation re-keys
// its random stream and group. The replacement's clock starts at the
// later of the missed arrival and session end + reconnect gap, keeping
// popped arrivals monotone.
func (e *engine) churn(id int32, c *client, at time.Duration) {
	e.churned++
	start := c.sessionEnd + e.reconnect
	if at > start {
		start = at
	}
	c.gen++
	c.draws = 0
	groups := uint64(e.s.Tenants[c.class].Groups)
	c.group = int32(mix(e.s.Seed, id, c.gen, 0, saltGroup) % groups)
	c.sessionEnd = start + expDur(mix(e.s.Seed, id, c.gen, 0, saltSession), e.churnMean)
	c.next = e.nextArrival(id, c, start)
	if c.next >= e.window {
		e.h.pop()
	} else {
		e.h.fix()
	}
}

// arrive is the open-loop discipline for one scheduled arrival: shed if
// the client's group is already at its queue bound, otherwise advance the
// routed shard's clock to the arrival instant and submit. Sheds and
// admission rejections are counted, never retried — the arrival already
// happened; pretending it didn't is how coordinated omission starts.
func (e *engine) arrive(id int32, c *client, at time.Duration) error {
	ci := c.class
	e.arrivals[ci]++
	tc := &e.s.Tenants[ci]
	cl := e.clients[ci][c.group]
	if cl.Tenant().Outstanding() >= int64(tc.QueueBound) {
		e.shed[ci]++
		return nil
	}
	sh, err := cl.Route()
	if err != nil {
		return err
	}
	// Shard clock = max(service backlog, arrival instant). When the shard
	// is backlogged AdvanceTo is a no-op and base picks up the backlog
	// delay, charged to this request from its scheduled arrival.
	now := sh.Clock().AdvanceTo(at)
	base := now - at
	item := make([]float32, e.width[ci])
	synthItem(item, e.s.Seed, id, c.gen, c.draws)
	p, err := cl.Submit(e.mixName[ci], [][]float32{item})
	if errors.Is(err, batcher.ErrBackpressure) {
		e.shed[ci]++
		return nil
	}
	if err != nil {
		return err
	}
	e.inflight = append(e.inflight, flight{p: p, class: ci, base: base, enq: at + base})
	if len(e.inflight)-e.head > e.s.MaxInflight {
		e.completeOldest()
	}
	return nil
}

// completeOldest waits for the oldest in-flight request (FIFO keeps
// collection order deterministic; Wait drives any pending deadline flush)
// and records its sojourn: backlog delay before enqueue plus
// enqueue-to-delivery latency, both virtual.
func (e *engine) completeOldest() {
	fl := e.inflight[e.head]
	e.inflight[e.head] = flight{}
	e.head++
	if e.head >= 8192 && e.head*2 >= len(e.inflight) {
		n := copy(e.inflight, e.inflight[e.head:])
		e.inflight = e.inflight[:n]
		e.head = 0
	}
	if _, err := fl.p.Wait(); err != nil {
		e.failed[fl.class]++
		return
	}
	e.completed[fl.class]++
	e.samples[fl.class] = append(e.samples[fl.class], int64(fl.base+fl.p.Latency()))
}

// collect folds the replay into a Result.
func (e *engine) collect() *Result {
	s := e.s
	r := &Result{
		Scenario:       s,
		Shards:         s.Shards,
		Clients:        len(e.h.clients),
		Churned:        e.churned,
		VirtualElapsed: e.fleet.VirtualElapsed(),
	}
	for ci := range s.Tenants {
		tc := &s.Tenants[ci]
		cr := ClassResult{
			Name:      tc.Name,
			Mix:       tc.Mix,
			Clients:   e.counts[ci],
			Arrivals:  e.arrivals[ci],
			Completed: e.completed[ci],
			Shed:      e.shed[ci],
			Failed:    e.failed[ci],
		}
		for _, cl := range e.clients[ci] {
			if p := cl.Tenant().PeakOutstanding(); p > cr.PeakOutstanding {
				cr.PeakOutstanding = p
			}
		}
		cr.measure(e.samples[ci], tc)
		r.Arrivals += cr.Arrivals
		r.Completed += cr.Completed
		r.Shed += cr.Shed
		r.Failed += cr.Failed
		r.Classes = append(r.Classes, cr)
	}
	if e.window > 0 {
		r.OfferedPerSec = float64(r.Arrivals) / e.window.Seconds()
	}
	if r.VirtualElapsed > 0 {
		r.GoodputPerSec = float64(r.Completed) / r.VirtualElapsed.Seconds()
	}
	if r.Arrivals > 0 {
		var within int64
		for _, c := range r.Classes {
			within += c.WithinP99
		}
		r.Attainment = float64(within) / float64(r.Arrivals)
	}
	st := e.fleet.Stats()
	r.Placements, r.Reroutes, r.Rejects = st.Placements, st.Reroutes, st.Rejects
	r.Stages = flightrec.MeasureStages(flightrec.Stitch(e.fleet.Recorder().Snapshot("lakeload")).Timelines)
	return r
}
