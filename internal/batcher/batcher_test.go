package batcher_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"lakego/internal/batcher"
	"lakego/internal/core"
	"lakego/internal/flightrec"
	"lakego/internal/offload"
	"lakego/internal/policy"
)

const (
	inW  = 4
	outW = 2
)

// forward is a deterministic stand-in model: affine mix of the inputs.
func forward(x []float32) []float32 {
	var a, b float32
	for i, v := range x {
		a += v * float32(i+1)
		b += v * v
	}
	return []float32{a, b + 1}
}

func newRT(t *testing.T) *core.Runtime {
	t.Helper()
	rt, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func modelCfg(name string) batcher.ModelConfig {
	return batcher.ModelConfig{
		Name:       name,
		InputWidth: inW, OutputWidth: outW,
		MaxBatch: 1024,
		CPUFixed: 2 * time.Microsecond, CPUPerItem: time.Microsecond,
		FlopsPerItem: 1000,
		Forward:      forward,
	}
}

func newBatcher(t *testing.T, rt *core.Runtime, cfg batcher.Config) *batcher.Batcher {
	t.Helper()
	b := batcher.New(rt, cfg)
	if err := b.RegisterModel(modelCfg("testmodel")); err != nil {
		t.Fatal(err)
	}
	return b
}

func item(i int) []float32 {
	x := make([]float32, inW)
	for j := range x {
		x[j] = float32((i*7+j*3)%13) / 4
	}
	return x
}

// TestDeadlineFlush: a lone request must be flushed at exactly its enqueue
// time + MaxWait on the virtual clock.
func TestDeadlineFlush(t *testing.T) {
	rt := newRT(t)
	cfg := batcher.DefaultConfig()
	cfg.Linger = 0 // drive the deadline flush from the first Wait
	cfg.MaxWait = 150 * time.Microsecond
	b := newBatcher(t, rt, cfg)
	c := b.Client("cli")

	t0 := rt.Clock().Now()
	p, err := c.Submit("testmodel", [][]float32{item(0)})
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	want := forward(item(0))
	if out[0][0] != want[0] || out[0][1] != want[1] {
		t.Fatalf("out = %v, want %v", out[0], want)
	}
	st := b.Stats()
	if st.DeadlineFlushes != 1 || st.FullFlushes != 0 {
		t.Fatalf("flushes = %+v, want one deadline flush", st)
	}
	if st.MaxQueueDelay != cfg.MaxWait {
		t.Fatalf("queue delay = %v, want exactly MaxWait %v", st.MaxQueueDelay, cfg.MaxWait)
	}
	if lat := p.Latency(); lat < cfg.MaxWait {
		t.Fatalf("latency %v < MaxWait", lat)
	}
	if rt.Clock().Now() < t0+cfg.MaxWait {
		t.Fatal("virtual clock did not reach the flush deadline")
	}
}

// TestFlushEventsConstant is the recorder's O(1) gate: one full flush's
// daemon-domain events do not grow with its member count, and its batcher
// domain holds exactly one enqueue per member plus the flush's start and end.
func TestFlushEventsConstant(t *testing.T) {
	daemonEvents := func(members int) int {
		rt := newRT(t)
		cfg := batcher.DefaultConfig()
		cfg.MaxBatch, cfg.ClientDepth = members, members
		b := newBatcher(t, rt, cfg)
		count := func(d flightrec.Domain) int {
			dump := rt.FlightRecorder().Snapshot("gate")
			if dump.TotalDropped() != 0 {
				t.Fatalf("recorder dropped %d events", dump.TotalDropped())
			}
			return len(dump.Domains[d].Events)
		}
		before := count(flightrec.DomainDaemon)
		c := b.Client("cli")
		ps := make([]*batcher.Pending, members)
		for i := range ps {
			p, err := c.Submit("testmodel", [][]float32{item(i)})
			if err != nil {
				t.Fatal(err)
			}
			ps[i] = p
		}
		for _, p := range ps {
			if _, err := p.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		if st := b.Stats(); st.Flushes != 1 || st.FullFlushes != 1 {
			t.Fatalf("%d members: %+v, want one full flush", members, st)
		}
		if n := count(flightrec.DomainBatcher); n != members+2 {
			t.Fatalf("%d members: %d batcher-domain events, want %d", members, n, members+2)
		}
		return count(flightrec.DomainDaemon) - before
	}
	if small, large := daemonEvents(4), daemonEvents(32); small != large {
		t.Fatalf("daemon-domain events per flush: %d with 4 members, %d with 32", small, large)
	}
}

// TestFullFlush: filling the queue to MaxBatch flushes inline from Submit,
// before any Wait, and ahead of the deadline.
func TestFullFlush(t *testing.T) {
	rt := newRT(t)
	cfg := batcher.DefaultConfig()
	cfg.MaxBatch = 8
	cfg.ClientDepth = 16
	b := newBatcher(t, rt, cfg)
	c := b.Client("cli")

	pendings := make([]*batcher.Pending, cfg.MaxBatch)
	for i := range pendings {
		p, err := c.Submit("testmodel", [][]float32{item(i)})
		if err != nil {
			t.Fatal(err)
		}
		pendings[i] = p
	}
	st := b.Stats()
	if st.FullFlushes != 1 || st.DeadlineFlushes != 0 {
		t.Fatalf("flushes = %+v, want one full flush", st)
	}
	if st.MaxQueueDelay > cfg.MaxWait {
		t.Fatalf("queue delay %v exceeds MaxWait %v", st.MaxQueueDelay, cfg.MaxWait)
	}
	for i, p := range pendings {
		out, err := p.Wait()
		if err != nil {
			t.Fatal(err)
		}
		want := forward(item(i))
		if out[0][0] != want[0] || out[0][1] != want[1] {
			t.Fatalf("request %d: out = %v, want %v", i, out[0], want)
		}
	}
	if got := b.Stats().AvgBatch(); got != float64(cfg.MaxBatch) {
		t.Fatalf("avg batch = %v, want %d", got, cfg.MaxBatch)
	}
}

// TestBackpressure: a client beyond its depth is rejected with the
// retryable result, and capacity returns once a request is delivered.
func TestBackpressure(t *testing.T) {
	rt := newRT(t)
	cfg := batcher.DefaultConfig()
	cfg.ClientDepth = 2
	cfg.Linger = 0
	b := newBatcher(t, rt, cfg)
	c := b.Client("cli")

	p1, err := c.Submit("testmodel", [][]float32{item(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("testmodel", [][]float32{item(2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("testmodel", [][]float32{item(3)}); !errors.Is(err, batcher.ErrBackpressure) {
		t.Fatalf("third submit err = %v, want ErrBackpressure", err)
	}
	if got := b.Stats().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	if _, err := p1.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("testmodel", [][]float32{item(4)}); err != nil {
		t.Fatalf("submit after drain err = %v", err)
	}
	// Other clients are unaffected by this client's backpressure: fair
	// admission is per client.
	if _, err := b.Client("other").Submit("testmodel", [][]float32{item(5)}); err != nil {
		t.Fatalf("other client submit err = %v", err)
	}
}

// TestPolicyRoutesCPU: a contended/unprofitable decision runs the flush on
// the CPU fallback with identical outputs.
func TestPolicyRoutesCPU(t *testing.T) {
	rt := newRT(t)
	cfg := batcher.DefaultConfig()
	cfg.Linger = 0
	cfg.Policy = func(batchSize int) policy.Decision { return policy.UseCPU }
	b := newBatcher(t, rt, cfg)
	c := b.Client("cli")

	out, err := c.Infer("testmodel", [][]float32{item(10), item(11)})
	if err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.CPUFlushes != 1 || st.GPUFlushes != 0 {
		t.Fatalf("flushes = %+v, want CPU flush", st)
	}
	for i, idx := range []int{10, 11} {
		want := forward(item(idx))
		if out[i][0] != want[0] || out[i][1] != want[1] {
			t.Fatalf("out[%d] = %v, want %v", i, out[i], want)
		}
	}
}

// TestAdaptivePolicySplit: with the Fig 3 policy installed, small flushes
// stay on the CPU and large ones offload.
func TestAdaptivePolicySplit(t *testing.T) {
	rt := newRT(t)
	cfg := batcher.DefaultConfig()
	cfg.Linger = 0
	cfg.MaxBatch = 64
	cfg.ClientDepth = 64
	ap := rt.NewAdaptivePolicy(policy.DefaultAdaptiveConfig()) // batch_threshold 8
	cfg.Policy = ap.Decide
	b := newBatcher(t, rt, cfg)
	c := b.Client("cli")

	if _, err := c.Infer("testmodel", [][]float32{item(0)}); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.CPUFlushes != 1 {
		t.Fatalf("batch of 1 should stay on CPU: %+v", st)
	}
	big := make([][]float32, 32)
	for i := range big {
		big[i] = item(i)
	}
	if _, err := c.Infer("testmodel", big); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.GPUFlushes != 1 {
		t.Fatalf("batch of 32 should offload: %+v", st)
	}
}

// TestBitIdenticalToUnbatched: routing through the batcher must produce
// bit-identical outputs to the unbatched offload paths (GPU and CPU).
func TestBitIdenticalToUnbatched(t *testing.T) {
	rtA := newRT(t)
	b := newBatcher(t, rtA, batcher.DefaultConfig())
	c := b.Client("cli")

	rtB := newRT(t)
	runner, err := offload.NewRunner(rtB, modelCfg("testmodel"))
	if err != nil {
		t.Fatal(err)
	}

	batch := make([][]float32, 17)
	for i := range batch {
		batch[i] = item(i * 3)
	}
	got, err := c.Infer("testmodel", batch)
	if err != nil {
		t.Fatal(err)
	}
	wantGPU, _, err := runner.RunLAKE(batch, false)
	if err != nil {
		t.Fatal(err)
	}
	wantCPU, _ := runner.RunCPU(batch)
	for i := range batch {
		for j := 0; j < outW; j++ {
			if got[i][j] != wantGPU[i][j] || got[i][j] != wantCPU[i][j] {
				t.Fatalf("item %d out %d: batched %v, unbatched GPU %v, CPU %v",
					i, j, got[i][j], wantGPU[i][j], wantCPU[i][j])
			}
		}
	}
}

// TestMultiItemRowsAreSeparate: a multi-item request's rows share one
// backing slice, so each must carry exactly its own item's unbatched bits
// and be capped at its own width — a caller appending to row i must not
// write into row i+1.
func TestMultiItemRowsAreSeparate(t *testing.T) {
	rt := newRT(t)
	cfg := batcher.DefaultConfig()
	cfg.Linger = 0
	b := newBatcher(t, rt, cfg)

	batch := make([][]float32, 5)
	for i := range batch {
		batch[i] = item(i*5 + 1)
	}
	got, err := b.Client("cli").Infer("testmodel", batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batch) {
		t.Fatalf("%d rows, want %d", len(got), len(batch))
	}
	for i, row := range got {
		want := forward(batch[i])
		if len(row) != outW || cap(row) != outW {
			t.Fatalf("row %d: len %d cap %d, want both %d", i, len(row), cap(row), outW)
		}
		for j := range want {
			if math.Float32bits(row[j]) != math.Float32bits(want[j]) {
				t.Fatalf("row %d out %d = %v, unbatched %v", i, j, row[j], want[j])
			}
		}
	}
	for i := 0; i+1 < len(got); i++ {
		next := append([]float32(nil), got[i+1]...)
		got[i] = append(got[i], -1)
		for j := range next {
			if math.Float32bits(got[i+1][j]) != math.Float32bits(next[j]) {
				t.Fatalf("append to row %d changed row %d: %v, was %v", i, i+1, got[i+1], next)
			}
		}
	}
}

// slabModel is forward as a batch-shaped pass that allocates nothing, so an
// allocation count over a flush is the batcher's own.
type slabModel struct{}

func (slabModel) ForwardSlab(in []float32, items int, out []float32) error {
	for i := 0; i < items; i++ {
		var a, b float32
		for k, v := range in[i*inW : (i+1)*inW] {
			a += v * float32(k+1)
			b += v * v
		}
		out[i*outW], out[i*outW+1] = a, b+1
	}
	return nil
}

// TestCPURouteUsesModelScratch: a CPU-routed flush decodes and forwards on
// scratch the model owns, so it delivers the unbatched bits while a request
// costs its Pending and nothing per request inside runCPU.
func TestCPURouteUsesModelScratch(t *testing.T) {
	rt := newRT(t)
	cfg := batcher.DefaultConfig()
	cfg.Linger = 0
	cfg.ClientDepth = 16
	cfg.Policy = func(int) policy.Decision { return policy.UseCPU }
	b := batcher.New(rt, cfg)
	mc := modelCfg("testmodel")
	mc.Forward = nil
	mc.ForwardProvider = func() batcher.SlabForward { return slabModel{} }
	if err := b.RegisterModel(mc); err != nil {
		t.Fatal(err)
	}
	c := b.Client("cli")

	const reqs = 8
	var pend [reqs]*batcher.Pending
	items := make([][][]float32, reqs)
	for i := range items {
		items[i] = [][]float32{item(i)}
	}
	round := func() {
		for i := range pend {
			p, err := c.Submit("testmodel", items[i])
			if err != nil {
				t.Fatal(err)
			}
			pend[i] = p
		}
		for i, p := range pend {
			out, err := p.Wait()
			if err != nil {
				t.Fatal(err)
			}
			want := forward(items[i][0])
			for j := range want {
				if math.Float32bits(out[0][j]) != math.Float32bits(want[j]) {
					t.Fatalf("request %d out %d = %v, unbatched %v", i, j, out[0][j], want[j])
				}
			}
		}
	}
	round() // grow the scratch and the queue
	// Per round: 8 Pendings and the flush's one result slab. Waiters sleep
	// on the model's condition variable and batch slices are recycled, so a
	// completion or step-down channel, or a batch slice, would make it 10;
	// two slices per request inside runCPU, as there used to be, 25.
	if n := testing.AllocsPerRun(50, round); n > reqs+1 {
		t.Fatalf("CPU-routed round of %d requests allocates %v objects, want <= %d", reqs, n, reqs+1)
	}
	if st := b.Stats(); st.GPUFlushes != 0 || st.CPUFlushes == 0 {
		t.Fatalf("flushes = %+v, want CPU flushes only", st)
	}
}

// TestConcurrentClients is the race-focused test: many goroutine clients
// share one Batcher, every result must match its own input's forward pass,
// and no request may wait past the deadline on the virtual clock.
func TestConcurrentClients(t *testing.T) {
	rt := newRT(t)
	cfg := batcher.DefaultConfig()
	cfg.MaxBatch = 16
	cfg.MaxWait = time.Millisecond
	cfg.Linger = 50 * time.Microsecond
	cfg.ClientDepth = 8
	b := newBatcher(t, rt, cfg)

	const (
		clients  = 12
		requests = 40
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(ci)))
			c := b.Client(fmt.Sprintf("cli-%d", ci))
			for r := 0; r < requests; r++ {
				n := 1 + rng.Intn(3)
				items := make([][]float32, n)
				for i := range items {
					items[i] = item(ci*1000 + r*10 + i)
				}
				out, err := c.Infer("testmodel", items)
				if errors.Is(err, batcher.ErrBackpressure) {
					r-- // retry, as the result code intends
					continue
				}
				if err != nil {
					errs <- fmt.Errorf("client %d: %v", ci, err)
					return
				}
				for i := range items {
					want := forward(items[i])
					for j := range want {
						if out[i][j] != want[j] {
							errs <- fmt.Errorf("client %d req %d item %d: got %v want %v",
								ci, r, i, out[i], want)
							return
						}
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.Requests != clients*requests {
		t.Fatalf("requests = %d, want %d", st.Requests, clients*requests)
	}
	if st.MaxQueueDelay > cfg.MaxWait {
		t.Fatalf("queue delay %v exceeded MaxWait %v", st.MaxQueueDelay, cfg.MaxWait)
	}
	if st.Flushes == 0 || st.Items < st.Requests {
		t.Fatalf("implausible stats: %+v", st)
	}
	t.Logf("stats: %+v avg batch %.1f", st, st.AvgBatch())
}

// TestSubmitValidation covers the request-shape error paths.
func TestSubmitValidation(t *testing.T) {
	rt := newRT(t)
	b := newBatcher(t, rt, batcher.DefaultConfig())
	c := b.Client("cli")
	if _, err := c.Submit("nosuch", [][]float32{item(0)}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := c.Submit("testmodel", nil); err == nil {
		t.Fatal("empty request accepted")
	}
	if _, err := c.Submit("testmodel", [][]float32{{1, 2}}); err == nil {
		t.Fatal("wrong-width item accepted")
	}
	if err := b.RegisterModel(modelCfg("testmodel")); err == nil {
		t.Fatal("duplicate model registration accepted")
	}
}

// TestRegisterWhileSubmitting: Submit reads the model registry without a
// lock while RegisterModel publishes new copies of it. Submitters on a
// registered model keep being served, each new model is found once
// registered, and a name registers once. Meant for -race.
func TestRegisterWhileSubmitting(t *testing.T) {
	rt := newRT(t)
	cfg := batcher.DefaultConfig()
	cfg.Linger = 0
	b := newBatcher(t, rt, cfg)
	const submitters, perSubmitter, models = 4, 50, 8
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c := b.Client(fmt.Sprintf("cli%d", s))
			for i := 0; i < perSubmitter; i++ {
				out, err := c.Infer("testmodel", [][]float32{item(s*perSubmitter + i)})
				if err != nil || len(out) != 1 {
					t.Errorf("submitter %d request %d: %v, %d rows", s, i, err, len(out))
					return
				}
			}
		}(s)
	}
	for m := 0; m < models; m++ {
		name := fmt.Sprintf("late%d", m)
		if err := b.RegisterModel(modelCfg(name)); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Client("late").Infer(name, [][]float32{item(m)}); err != nil {
			t.Fatalf("model %s after registering: %v", name, err)
		}
	}
	wg.Wait()
	if err := b.RegisterModel(modelCfg("late0")); err == nil {
		t.Fatal("a second registration of late0 succeeded")
	}
}

// TestClientAlternatesModels: a client keeps the model it last resolved and
// re-resolves when the name changes, so one client alternating between two
// models of equal shape, a registered-late third and an unknown name gets
// each model's own forward pass and each error, however the calls
// interleave.
func TestClientAlternatesModels(t *testing.T) {
	rt := newRT(t)
	cfg := batcher.DefaultConfig()
	cfg.Linger = 0
	b := newBatcher(t, rt, cfg)
	doubled := func(x []float32) []float32 {
		y := forward(x)
		return []float32{2 * y[0], 2 * y[1]}
	}
	mc := modelCfg("doubled")
	mc.Forward = doubled
	if err := b.RegisterModel(mc); err != nil {
		t.Fatal(err)
	}
	c := b.Client("cli")
	models := map[string]func([]float32) []float32{"testmodel": forward, "doubled": doubled}
	for i, name := range []string{"testmodel", "doubled", "doubled", "nosuch", "testmodel", "late", "doubled", "late"} {
		if name == "late" && models["late"] == nil {
			if _, err := c.Infer(name, [][]float32{item(i)}); err == nil {
				t.Fatal("model late served before it was registered")
			}
			mc := modelCfg("late")
			mc.Forward = func(x []float32) []float32 { return []float32{x[0], x[1]} }
			if err := b.RegisterModel(mc); err != nil {
				t.Fatal(err)
			}
			models["late"] = mc.Forward
		}
		out, err := c.Infer(name, [][]float32{item(i)})
		if name == "nosuch" {
			if err == nil {
				t.Fatal("unknown model accepted")
			}
			continue
		}
		if want := models[name](item(i)); err != nil || len(out) != 1 || !slices.Equal(out[0], want) {
			t.Fatalf("call %d on %s: %v, %v; want %v", i, name, out, err, want)
		}
	}
}
