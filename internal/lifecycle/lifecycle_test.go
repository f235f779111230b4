package lifecycle

import (
	"bytes"
	"encoding/binary"
	"testing"

	"lakego/internal/nn"
	"lakego/internal/policy"
	"lakego/internal/vtime"
)

// labeledStream emits a deterministic, learnable outcome stream: two input
// clusters with label = which cluster, predictions attributed to pred.
func labeledStream(n int, pred *nn.Network) []Outcome {
	out := make([]Outcome, n)
	for i := range out {
		label := i % 2
		x := []float32{-1, -1}
		if label == 1 {
			x = []float32{1, 1}
		}
		// Deterministic jitter keeps the stream from being two literal points.
		x[0] += float32(i%7) * 0.01
		x[1] -= float32(i%5) * 0.01
		out[i] = Outcome{X: x, Label: label, Predicted: pred.Predict(x)}
	}
	return out
}

// constantBase returns a Base-shaped net whose final layer always picks
// class 0 — a provably mediocre (50%) serving model the online trainer
// must beat for promotion to trigger.
func constantBase(seed int64) *nn.Network {
	net := nn.New(seed, 2, 8, 2)
	last := len(net.Layers) - 1
	for i := range net.Layers[last].W {
		net.Layers[last].W[i] = 0
	}
	net.Layers[last].B[0] = 1
	net.Layers[last].B[1] = 0
	return net
}

func TestRegistryVersioning(t *testing.T) {
	r := NewRegistry()
	n1 := nn.New(1, 2, 4, 2)
	v1 := r.Register(n1, Meta{Model: "m", Note: "base"})
	if v1.Seq != 1 {
		t.Fatalf("first version seq %d, want 1", v1.Seq)
	}
	// Re-registering identical weights dedups on content hash.
	if v := r.Register(n1.Clone(), Meta{Note: "dup"}); v != v1 {
		t.Fatalf("identical weights minted a new version (seq %d)", v.Seq)
	}
	if r.Serving() != nil {
		t.Fatal("registry serving before any promote")
	}
	if _, _, err := r.Promote(v1.Seq); err != nil {
		t.Fatal(err)
	}
	if r.Serving() != v1 {
		t.Fatal("promote did not install v1")
	}

	n2 := n1.Clone()
	n2.Layers[0].W[0] += 0.5
	v2 := r.Register(n2, Meta{Note: "variant"})
	if v2.Seq != 2 || v2.Hash == v1.Hash {
		t.Fatalf("distinct weights: seq %d hash %x vs %x", v2.Seq, v2.Hash, v1.Hash)
	}
	nv, old, err := r.Promote(v2.Seq)
	if err != nil || nv != v2 || old != v1 {
		t.Fatalf("promote v2: nv=%v old=%v err=%v", nv, old, err)
	}
	back, displaced, err := r.Rollback()
	if err != nil || back != v1 || displaced != v2 {
		t.Fatalf("rollback: back=%v displaced=%v err=%v", back, displaced, err)
	}
	if _, _, err := r.Rollback(); err == nil {
		t.Fatal("rollback with empty history succeeded")
	}
	if got := r.Len(); got != 2 {
		t.Fatalf("registry holds %d versions, want 2", got)
	}

	// The untrusted-blob path goes through the hardened decoder: a crafted
	// allocation-bomb blob is rejected, a valid blob registers and its
	// version round-trips byte-identically.
	bomb := binary.LittleEndian.AppendUint32(nil, 0x4C4E4E31)
	bomb = binary.LittleEndian.AppendUint32(bomb, 1)
	bomb = binary.LittleEndian.AppendUint32(bomb, 1<<20)
	bomb = binary.LittleEndian.AppendUint32(bomb, 1<<20)
	bomb = append(bomb, 1)
	if _, err := r.RegisterBlob(bomb, Meta{}); err == nil {
		t.Fatal("allocation-bomb blob registered")
	}
	// A well-formed blob whose layers do not chain (2→8, then 4→2) is
	// rejected too: promoted, it would panic the next Pump's forward pass.
	unchained := &nn.Network{Layers: []*nn.Layer{nn.New(1, 2, 8).Layers[0], nn.New(2, 4, 2).Layers[0]}}
	if _, err := r.RegisterBlob(unchained.Marshal(), Meta{}); err == nil {
		t.Fatal("unchained blob registered")
	}
	blob := nn.New(9, 2, 3, 2).Marshal()
	v3, err := r.RegisterBlob(blob, Meta{Note: "imported"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v3.Blob(), blob) {
		t.Fatal("registered blob is not byte-identical")
	}
}

func TestManagerPromotesOnBetterCandidate(t *testing.T) {
	base := constantBase(3) // always predicts class 0: 50% on the stream
	cfg := DefaultConfig("test")
	cfg.Minibatch = 16
	cfg.RoundSamples = 64
	m, err := NewManager(vtime.New(), cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	var applied int
	if err := m.Attach(func(*nn.Network) error { applied++; return nil }); err != nil {
		t.Fatal(err)
	}
	if applied != 1 {
		t.Fatalf("Attach applied serving %d times, want 1", applied)
	}
	for _, o := range labeledStream(2000, base) {
		if !m.Observe(o) {
			m.Pump()
			m.Observe(o)
		}
		m.Pump()
	}
	st := m.Stats()
	if st.Swaps == 0 {
		t.Fatalf("online training never promoted: %+v", st)
	}
	if st.ServingSeq == 1 {
		t.Fatal("serving still the untrained base")
	}
	if applied < 2 {
		t.Fatalf("swap hook applied %d times, want >= 2 (attach + promote)", applied)
	}
	// The promoted model must actually have learned the stream.
	serving := m.Serving().Net()
	hits := 0
	probe := labeledStream(100, base)
	for _, o := range probe {
		if serving.Predict(o.X) == o.Label {
			hits++
		}
	}
	if hits < 95 {
		t.Fatalf("promoted model scores %d/100 on the training distribution", hits)
	}
	if st.Dropped != 0 {
		t.Fatalf("dropped %d outcomes despite inline pumping", st.Dropped)
	}
}

// TestManagerDeterministicRetrain pins the in-daemon trainer's determinism:
// the same feedback sequence must reproduce bit-identical weights, so a
// retrained model is as reproducible as an offline fixed-seed run.
func TestManagerDeterministicRetrain(t *testing.T) {
	run := func() (uint64, []byte, uint64) {
		base := constantBase(3)
		cfg := DefaultConfig("det")
		cfg.Minibatch = 16
		cfg.RoundSamples = 64
		m, err := NewManager(vtime.New(), cfg, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range labeledStream(1500, base) {
			m.Observe(o)
			m.Pump()
		}
		v := m.Serving()
		return v.Hash, v.Net().Marshal(), m.Stats().Swaps
	}
	h1, blob1, swaps1 := run()
	h2, blob2, swaps2 := run()
	if swaps1 == 0 {
		t.Fatal("stream never promoted; determinism unexercised")
	}
	if swaps1 != swaps2 || h1 != h2 || !bytes.Equal(blob1, blob2) {
		t.Fatalf("online retraining is not deterministic: swaps %d/%d hash %x/%x",
			swaps1, swaps2, h1, h2)
	}
}

// TestDriftDemotesThenFallsBack walks the full degradation cascade: a
// pinned baseline, two bad windows -> rollback to the previous version,
// two more -> no versions left -> heuristic fallback via WrapPolicy.
func TestDriftDemotesThenFallsBack(t *testing.T) {
	base := nn.New(3, 2, 8, 2)
	cfg := DefaultConfig("drift")
	cfg.DriftWindow = 50
	cfg.RoundSamples = 1 << 30 // keep the trainer out of this test
	m, err := NewManager(vtime.New(), cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	// Manually install a second version so there is something to demote.
	v2net := base.Clone()
	v2net.Layers[0].W[0] += 0.25
	v2 := m.Registry().Register(v2net, Meta{Model: "drift", Note: "manual"})
	if err := m.PromoteVersion(v2.Seq); err != nil {
		t.Fatal(err)
	}
	if m.Serving().Seq != v2.Seq {
		t.Fatal("manual promote did not install v2")
	}

	good := Outcome{X: []float32{1, 1}, Predicted: 1, Label: 1}
	bad := Outcome{X: []float32{1, 1}, Predicted: 0, Label: 1}
	feed := func(o Outcome, n int) {
		for i := 0; i < n; i++ {
			m.Observe(o)
			m.Pump()
		}
	}

	feed(good, cfg.DriftWindow) // pins baseline = 1.0
	if st := m.Stats(); st.Baseline != 1.0 {
		t.Fatalf("baseline %v, want 1.0", st.Baseline)
	}
	feed(bad, 2*cfg.DriftWindow) // two bad windows -> demote to v1
	st := m.Stats()
	if st.Demotions != 1 || st.ServingSeq != 1 {
		t.Fatalf("after bad windows: demotions %d serving %d, want 1/1 (%+v)",
			st.Demotions, st.ServingSeq, st)
	}
	if st.Fallback {
		t.Fatal("fell back before exhausting the version stack")
	}
	if !m.Healthy() {
		t.Fatal("unhealthy while a rollback target remained")
	}
	feed(bad, 2*cfg.DriftWindow) // v1 held to the same baseline -> fallback
	st = m.Stats()
	if !st.Fallback || m.Healthy() {
		t.Fatalf("version stack exhausted but no fallback: %+v", st)
	}
	// WrapPolicy must now force the CPU path no matter what pol says.
	pol := m.WrapPolicy(func(int) policy.Decision { return policy.UseGPU })
	if pol(1024) != policy.UseCPU {
		t.Fatal("unhealthy model still routed to GPU")
	}
}

func TestObserveNeverBlocks(t *testing.T) {
	base := nn.New(1, 2, 2)
	m, err := NewManager(vtime.New(), DefaultConfig("bounded"), base)
	if err != nil {
		t.Fatal(err)
	}
	o := Outcome{X: []float32{1, 0}, Predicted: 0, Label: 0}
	const offers = feedbackBuffer + 92
	accepted := 0
	for i := 0; i < offers; i++ {
		if m.Observe(o) {
			accepted++
		}
	}
	if accepted != feedbackBuffer {
		t.Fatalf("accepted %d, want exactly the buffer capacity %d", accepted, feedbackBuffer)
	}
	if got := m.Dropped(); got != offers-feedbackBuffer {
		t.Fatalf("dropped %d, want %d (drops must be counted, never silent)", got, offers-feedbackBuffer)
	}
	if n := m.Pump(); n != feedbackBuffer {
		t.Fatalf("pumped %d, want %d", n, feedbackBuffer)
	}
}

func TestWrapPolicyHealthyPassthrough(t *testing.T) {
	m, err := NewManager(vtime.New(), DefaultConfig("p"), nn.New(1, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	pol := m.WrapPolicy(func(batch int) policy.Decision {
		calls++
		if batch >= 8 {
			return policy.UseGPU
		}
		return policy.UseCPU
	})
	if pol(16) != policy.UseGPU || pol(2) != policy.UseCPU || calls != 2 {
		t.Fatal("healthy manager must pass decisions through")
	}
	if m.WrapPolicy(nil)(1) != policy.UseGPU {
		t.Fatal("nil policy defaults to GPU while healthy")
	}
}
