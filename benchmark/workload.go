package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"lakego/internal/batcher"
	"lakego/internal/boundary"
	"lakego/internal/core"
	"lakego/internal/fleet"
	"lakego/internal/gpupool"
	"lakego/internal/linnos"
	"lakego/internal/mllb"
	"lakego/internal/nn"
)

// refSeconds is the run length the op counts below are written for: a
// workload's timed phase takes about this long at the seed commit on a
// 2-core box. -seconds scales every count linearly, so the work — and with
// it every virtual metric and count — is a fixed function of the arguments,
// never of how fast the code under test happens to be.
const refSeconds = 8

// sizing scales a workload: ops multiplies the timed and traced op counts,
// warm multiplies the warm-up. Real runs keep warm at 1; the smoke test
// shrinks both.
type sizing struct {
	ops, warm float64
}

func (s sizing) scale(n int) int {
	if v := int(math.Round(float64(n) * s.ops)); v > rounds {
		return v
	}
	return rounds
}

// rounds splits the timed phase; wall-rate metrics are the median round.
const rounds = 5

// poolSize is the number of generated input vectors per model.
const poolSize = 256

// Network seeds are fixed (the same ones internal/loadgen uses for these
// classes): -seed regenerates inputs and schedules, never the models.
const (
	mllbNetSeed   = 7
	linnosNetSeed = 3
)

// model is one served network plus the inputs generated for it.
type model struct {
	name  string  // batcher model name
	share float64 // fraction of the workload's requests this model serves
	net   *nn.Network
	pool  [][]float32
	ref   [][]float32 // reference logits per pool vector, from nn.Network.Forward
	// items[i] is the one-item request holding pool[i], prebuilt so the
	// driver allocates nothing per operation.
	items [][][]float32
}

func newModel(name string, netSeed int64, sizes []int, rng *rand.Rand) *model {
	m := &model{name: name, share: 1, net: nn.New(netSeed, sizes...)}
	for i := 0; i < poolSize; i++ {
		x := make([]float32, sizes[0])
		for j := range x {
			x[j] = rng.Float32()
		}
		m.pool = append(m.pool, x)
		m.ref = append(m.ref, m.net.Forward(x))
		m.items = append(m.items, [][]float32{x})
	}
	return m
}

// agrees reports whether delivered logits match the reference forward pass:
// same class and every logit within 1e-3.
func agrees(got, ref []float32) bool {
	if len(got) != len(ref) {
		return false
	}
	for i := range ref {
		if math.Abs(float64(got[i]-ref[i])) > 1e-3 || math.IsNaN(float64(got[i])) {
			return false
		}
	}
	return argmax(got) == argmax(ref)
}

func argmax(y []float32) int {
	best := 0
	for i := range y {
		if y[i] > y[best] {
			best = i
		}
	}
	return best
}

// tally is the driver-side account of the timed phase, in inference items.
// It records only while on is set, so warm-up and the traced pass leave the
// end-to-end numbers alone.
type tally struct {
	on     bool
	budget time.Duration

	attempted, completed int64
	shed, rejected       int64 // open loop: queue-bound sheds, ErrBackpressure
	failed, wrong        int64 // call errors, outputs that disagree with the reference
	within               int64 // delivered correctly within budget

	lat     []int64 // virtual latency per delivered request, ns
	backlog []int64 // open loop: shard-clock lead over the scheduled arrival, ns
}

// deliver records one delivered request of items inference items, bad of
// which disagree with the reference, at virtual latency lat.
func (t *tally) deliver(items, bad int, lat time.Duration) {
	t.completed += int64(items)
	t.wrong += int64(bad)
	t.lat = append(t.lat, int64(lat))
	if lat <= t.budget {
		t.within += int64(items - bad)
	}
}

// disagreements is 0 when got matches ref (see agrees), else 1.
func disagreements(got, ref []float32) int {
	if agrees(got, ref) {
		return 0
	}
	return 1
}

// misses counts every attempted item that was not delivered correctly.
func (t *tally) misses() int64 { return t.shed + t.rejected + t.failed + t.wrong }

// stack is what a workload booted, for the per-layer collectors and probes.
type stack struct {
	fleet    *fleet.Fleet // nil on the single-runtime workloads
	runtimes []*core.Runtime
	models   []*model
	clients  []*fleet.Client // every tenant handle, for the Route probe
}

func (s *stack) virtualElapsed() time.Duration {
	var max time.Duration
	for _, rt := range s.runtimes {
		if now := rt.Clock().Now(); now > max {
			max = now
		}
	}
	return max
}

func (s *stack) close() {
	for _, rt := range s.runtimes {
		rt.Close()
	}
}

// driver is one booted workload. step issues the next operation of the
// fixed sequence; the harness decides which steps are warm-up, timed or
// traced.
type driver interface {
	// warm runs the warm-up operations.
	warm() error
	// steps returns how many operations the timed phase and the traced pass
	// issue, and about how many spans one traced operation records.
	steps() (timed, traced, spansPerStep int)
	// step issues one operation (an inference, a wave, an arrival).
	step(tr *tracer) error
	// drain collects every request still in flight; a no-op closed loop.
	drain(tr *tracer) error
	stack() *stack
	tally() *tally
}

// base is what every driver holds; closed loops also take its no-op drain.
type base struct {
	st stack
	t  tally
}

func (b *base) stack() *stack       { return &b.st }
func (b *base) tally() *tally       { return &b.t }
func (b *base) drain(*tracer) error { return nil }

// workloadSpec is one named workload. The why text is also BENCHMARK.json's.
type workloadSpec struct {
	name   string
	why    string
	budget time.Duration // virtual latency budget per request
	boot   func(spec *workloadSpec, seed int64, sz sizing) (driver, error)
}

var workloads = []*workloadSpec{
	{
		name:   "call_mllb",
		why:    "closed loop, one caller, unbatched MLLB inference = 3 remoted calls: remoting, ring boundary, flightrec and gpu bookkeeping dominate; timed right of the 5 s utilisation window",
		budget: 50 * time.Microsecond,
		boot:   bootCallMLLB,
	},
	{
		name:   "bulk_linnos",
		why:    "closed loop, one caller, LinnOS batches of 1024 through the same stub path: nn forward passes and lakeShm staging dominate, remoting and boundary are under 1 %",
		budget: 100 * time.Microsecond,
		boot:   bootBulkLinnOS,
	},
	{
		name:   "fleet_mllb",
		why:    "closed loop, 64 tenants in waves on a 2-shard fleet: full 32-item flushes only, so router, admission, enqueue, gather/scatter, batch codec and shm alloc dominate",
		budget: 100 * time.Microsecond,
		boot:   bootFleetMLLB,
	},
	{
		name:   "open_low",
		why:    "open loop, Poisson 100k req/virtual-s on the fleet: deadline flushes of about 4 items, so per-flush overhead and queue wait dominate; crosses the 5 s window cheaply",
		budget: 250 * time.Microsecond,
		boot:   bootOpenLow,
	},
	{
		name:   "open_burst",
		why:    "open loop, 800k req/virtual-s with a 4x burst above modelled capacity: backlog delay, tenant-bound sheds and backpressure; the only workload where admission and shed accounting work",
		budget: 250 * time.Microsecond,
		boot:   bootOpenBurst,
	},
}

func workloadByName(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ringConfig is the shipping shape every workload boots: ring transport,
// telemetry and flight recorder on.
func ringConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Channel = boundary.Ring
	return cfg
}

// utilisationWindow is gpu.Device's span-retention horizon. Workloads that
// want the steady state of a long-lived caller warm up to just past it:
// from there on every launch retires one old span and moves the rest, so
// the steady state starts at once and a longer warm-up only costs time.
const (
	utilisationWindow = 5 * time.Second
	pastWindow        = utilisationWindow + 20*time.Millisecond
)

// ---- call_mllb -------------------------------------------------------

type callMLLB struct {
	base
	m      *model
	bal    *mllb.Balancer
	i      int
	warmTo time.Duration
	timed  int
}

func bootCallMLLB(spec *workloadSpec, seed int64, sz sizing) (driver, error) {
	rng := rand.New(rand.NewSource(seed))
	m := newModel("mllb_nn", mllbNetSeed, mllb.Sizes(), rng)
	rt, err := core.New(ringConfig())
	if err != nil {
		return nil, err
	}
	bal, err := mllb.New(rt, m.net)
	if err != nil {
		return nil, err
	}
	d := &callMLLB{
		base:   base{st: stack{runtimes: []*core.Runtime{rt}, models: []*model{m}}},
		m:      m,
		bal:    bal,
		warmTo: time.Duration(float64(pastWindow) * sz.warm),
		timed:  sz.scale(20_000),
	}
	d.t = tally{budget: spec.budget, lat: make([]int64, 0, d.timed)}
	return d, nil
}

func (d *callMLLB) warm() error {
	clock := d.st.runtimes[0].Clock()
	for clock.Now() < d.warmTo {
		if err := d.step(nil); err != nil {
			return err
		}
	}
	return nil
}

func (d *callMLLB) steps() (int, int, int) { return d.timed, d.timed / 4, 1 }

func (d *callMLLB) step(tr *tracer) error {
	k := d.i % poolSize
	d.i++
	id := tr.begin("RunLAKE", uint64(d.i))
	out, lat, err := d.bal.Runner().RunLAKE(d.m.items[k], true)
	tr.end(id)
	if !d.t.on {
		return err
	}
	d.t.attempted++
	if err != nil {
		d.t.failed++
		return nil
	}
	d.t.deliver(1, disagreements(out[0], d.m.ref[k]), lat)
	return nil
}

// ---- bulk_linnos -----------------------------------------------------

const bulkBatch = 1024

type bulkLinnOS struct {
	base
	m     *model
	pred  *linnos.Predictor
	slow  []bool // reference class per pool vector
	i     int
	timed int
	warmN int
	// batches are rotations of the pool: batches[r][j] = pool[(j+16r) % poolSize].
	batches [][][]float32
}

func bootBulkLinnOS(spec *workloadSpec, seed int64, sz sizing) (driver, error) {
	rng := rand.New(rand.NewSource(seed))
	m := newModel("linnos", linnosNetSeed, linnos.Base.Sizes(), rng)
	rt, err := core.New(ringConfig())
	if err != nil {
		return nil, err
	}
	pred, err := linnos.NewPredictor(rt, linnos.Base, m.net)
	if err != nil {
		return nil, err
	}
	d := &bulkLinnOS{
		base:  base{st: stack{runtimes: []*core.Runtime{rt}, models: []*model{m}}},
		m:     m,
		pred:  pred,
		timed: sz.scale(1000),
		warmN: int(math.Ceil(100 * sz.warm)),
	}
	for _, y := range m.ref {
		d.slow = append(d.slow, y[1] > y[0])
	}
	for r := 0; r < poolSize/16; r++ {
		b := make([][]float32, bulkBatch)
		for j := range b {
			b[j] = m.pool[(j+16*r)%poolSize]
		}
		d.batches = append(d.batches, b)
	}
	d.t = tally{budget: spec.budget, lat: make([]int64, 0, d.timed)}
	return d, nil
}

func (d *bulkLinnOS) warm() error {
	for i := 0; i < d.warmN; i++ {
		if err := d.step(nil); err != nil {
			return err
		}
	}
	return nil
}

func (d *bulkLinnOS) steps() (int, int, int) { return d.timed, d.timed / 4, 1 }

func (d *bulkLinnOS) step(tr *tracer) error {
	r := d.i % len(d.batches)
	d.i++
	id := tr.begin("InferLAKE", uint64(d.i))
	// InferLAKE returns classes, not logits, so the check here is the class.
	slow, lat, err := d.pred.InferLAKE(d.batches[r], true)
	tr.end(id)
	if !d.t.on {
		return err
	}
	d.t.attempted += bulkBatch
	if err != nil {
		d.t.failed += bulkBatch
		return nil
	}
	bad := 0
	for j, s := range slow {
		if s != d.slow[(j+16*r)%poolSize] {
			bad++
		}
	}
	d.t.deliver(bulkBatch, bad, lat)
	return nil
}

// ---- the 2-shard fleet the other three workloads share ---------------

const (
	fleetShards     = 2
	fleetRouterSeed = 42
	fleetMaxBatch   = 32
	fleetMaxWait    = 100 * time.Microsecond
	fleetDepth      = 64
)

// bootFleet boots the fleet and registers the models under their names.
// maxOutstanding is the fleet-wide fair-share cap (0 = none).
func bootFleet(maxOutstanding int, models ...*model) (*fleet.Fleet, error) {
	rcfg := ringConfig()
	rcfg.NumShards = fleetShards
	rcfg.RouterPolicy = gpupool.RoundRobin
	rcfg.RouterSeed = fleetRouterSeed
	fl, err := fleet.New(fleet.Config{
		Runtime: rcfg,
		Batcher: batcher.Config{
			MaxBatch: fleetMaxBatch,
			MaxWait:  fleetMaxWait,
			// Linger is wall-clock slack for concurrent submitters; with one
			// driver goroutine there is nobody to wait for.
			Linger:      0,
			ClientDepth: fleetDepth,
		},
		MaxOutstanding: maxOutstanding,
	})
	if err != nil {
		return nil, err
	}
	for _, m := range models {
		mc := batcher.ModelConfig{
			Name:       m.name,
			InputWidth: m.net.InputSize(), OutputWidth: m.net.OutputSize(),
			MaxBatch:     1024,
			FlopsPerItem: m.net.Flops(),
			Forward:      m.net.Forward,
		}
		if err := fl.RegisterModel(mc); err != nil {
			fl.Close()
			return nil, err
		}
	}
	return fl, nil
}

func fleetStack(fl *fleet.Fleet, models ...*model) stack {
	st := stack{fleet: fl, models: models}
	for _, s := range fl.Shards() {
		st.runtimes = append(st.runtimes, s.Runtime())
	}
	return st
}

// beginCall opens a span around one fleet call in the traced pass and notes
// the batcher flush count; endCall closes it and, when the call performed a
// flush (the count moved), renames the span name+"+flush". That is how the
// traced pass tells admission and staging from flush execution. With tracing
// off both do nothing.
func (s *stack) beginCall(tr *tracer, name string, req uint64) (id int32, flushes int64) {
	if tr == nil {
		return -1, 0
	}
	return tr.begin(name, req), s.flushes()
}

func (s *stack) endCall(tr *tracer, id int32, name string, flushes int64) {
	if tr == nil {
		return
	}
	tr.end(id)
	if s.flushes() != flushes {
		tr.rename(id, name+"+flush")
	}
}

func (s *stack) flushes() int64 {
	var n int64
	for _, sh := range s.fleet.Shards() {
		n += sh.Batcher().Stats().Flushes
	}
	return n
}

// ---- fleet_mllb ------------------------------------------------------

const waveTenants = 64

type fleetMLLB struct {
	base
	m       *model
	clients []*fleet.Client
	pend    [waveTenants]*fleet.Pending
	key     [waveTenants]int
	i       int
	timed   int
	warmN   int
}

func bootFleetMLLB(spec *workloadSpec, seed int64, sz sizing) (driver, error) {
	rng := rand.New(rand.NewSource(seed))
	m := newModel("mllb", mllbNetSeed, mllb.Sizes(), rng)
	fl, err := bootFleet(0, m)
	if err != nil {
		return nil, err
	}
	d := &fleetMLLB{
		base:  base{st: fleetStack(fl, m)},
		m:     m,
		timed: sz.scale(45_000),
		warmN: int(math.Ceil(2000 * sz.warm)),
	}
	for c := 0; c < waveTenants; c++ {
		d.clients = append(d.clients, fl.Client(fmt.Sprintf("tenant%02d", c)))
	}
	d.st.clients = d.clients
	d.t = tally{budget: spec.budget, lat: make([]int64, 0, d.timed*waveTenants)}
	return d, nil
}

func (d *fleetMLLB) warm() error {
	for i := 0; i < d.warmN; i++ {
		if err := d.step(nil); err != nil {
			return err
		}
	}
	return nil
}

func (d *fleetMLLB) steps() (int, int, int) { return d.timed, d.timed / 4, 2*waveTenants + 1 }

// step is one wave: every tenant submits one request, then every tenant
// waits for its result.
func (d *fleetMLLB) step(tr *tracer) error {
	wave := uint64(d.i)
	d.i++
	w := tr.begin("wave", wave)
	for c, cl := range d.clients {
		k := (d.i*waveTenants + c) % poolSize
		d.key[c] = k
		id, flushes := d.st.beginCall(tr, "Submit", wave)
		p, err := cl.Submit(d.m.name, d.m.items[k])
		d.st.endCall(tr, id, "Submit", flushes)
		if err != nil {
			return fmt.Errorf("fleet_mllb: submit: %w", err) // a closed loop within depth is never refused
		}
		d.pend[c] = p
	}
	for c, p := range d.pend {
		id, flushes := d.st.beginCall(tr, "Wait", wave)
		out, err := p.Wait()
		d.st.endCall(tr, id, "Wait", flushes)
		if !d.t.on {
			continue
		}
		d.t.attempted++
		if err != nil {
			d.t.failed++
			continue
		}
		d.t.deliver(1, disagreements(out[0], d.m.ref[d.key[c]]), p.Latency())
	}
	tr.end(w)
	return nil
}
