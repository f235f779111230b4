package lifecycle

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"lakego/internal/nn"
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

// TestPromoteVersions pins the version store behind the serving slot: the
// base is version 1, byte-identical weights dedup on their content hash, a
// distinct network becomes version 2 and serves, a demotion pops back to
// the version it displaced, and a network of another geometry is refused.
func TestPromoteVersions(t *testing.T) {
	n1 := nn.New(1, 2, 4, 2)
	m := newManager(n1)
	v1 := m.serving
	if v1.Seq != 1 {
		t.Fatalf("base version seq %d, want 1", v1.Seq)
	}
	var applied []*nn.Network
	if err := m.Attach(func(n *nn.Network) error { applied = append(applied, n); return nil }); err != nil {
		t.Fatal(err)
	}
	// Re-promoting identical weights dedups on content hash: no new
	// version, no flip, and no registration counted.
	if v, err := m.Promote(n1.Clone()); err != nil || v != v1 {
		t.Fatalf("identical weights: version %+v err %v, want the base", v, err)
	}
	if got := m.registrations.Value(); got != 1 {
		t.Fatalf("%d registrations after re-promoting the base, want 1", got)
	}

	n2 := n1.Clone()
	n2.Layers[0].W[0] += 0.5
	v2, err := m.Promote(n2)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Seq != 2 || v2.Hash == v1.Hash {
		t.Fatalf("distinct weights: seq %d hash %x vs %x", v2.Seq, v2.Hash, v1.Hash)
	}
	if m.serving != v2 || len(applied) != 2 || applied[1] != v2.Net() {
		t.Fatalf("promote did not install v2 in the slot and the predictor (%d applies)", len(applied))
	}
	if st := m.Stats(); st.Versions != 2 || st.Swaps != 1 || st.ServingSeq != 2 || st.ServingHash != v2.Hash {
		t.Fatalf("after promote: %+v, want 2 versions, 1 swap, v2 serving", st)
	}

	if _, err := m.Promote(nn.New(1, 2, 8, 2)); err == nil {
		t.Fatal("a network of another geometry was promoted")
	}
	if _, err := m.Promote(nil); err == nil {
		t.Fatal("a nil network was promoted")
	}

	m.mu.Lock()
	m.demote()
	m.mu.Unlock()
	if m.serving != v1 || len(applied) != 3 || applied[2] != v1.Net() {
		t.Fatal("demotion did not reinstate v1")
	}
	if st := m.Stats(); st.Demotions != 1 || st.Fallback || st.Versions != 2 {
		t.Fatalf("after demotion: %+v, want one demotion, no fallback, 2 versions", st)
	}

	// A predictor that rejects a version keeps serving the old one, and so
	// does the manager.
	if err := m.Attach(func(n *nn.Network) error {
		if n != v1.Net() {
			return errors.New("rejected")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	n3 := n1.Clone()
	n3.Layers[0].W[0] -= 0.5
	if _, err := m.Promote(n3); err == nil {
		t.Fatal("a version the predictor rejected was promoted")
	}
	if st := m.Stats(); st.ServingSeq != 1 || st.Swaps != 2 {
		t.Fatalf("after a rejected promote: %+v, want v1 serving and 2 swaps", st)
	}
}

func TestManagerPromotesOnBetterCandidate(t *testing.T) {
	base := constantBase(3) // always predicts class 0: 50% on the stream
	m := newManager(base)
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
	serving := m.serving.Net()
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

// TestNaNOutcomeDoesNotPoisonTrainer: one outcome with a NaN feature ahead
// of the promotion stream is dropped at Observe, so the trainer still
// learns the stream and promotes, as it does without it.
func TestNaNOutcomeDoesNotPoisonTrainer(t *testing.T) {
	base := constantBase(3)
	m := newManager(base)
	if m.Observe(Outcome{X: []float32{float32(math.NaN()), 1}, Label: 1}) {
		t.Fatal("an outcome with a NaN feature was accepted")
	}
	for _, o := range labeledStream(2000, base) {
		m.Observe(o)
		m.Pump()
	}
	st := m.Stats()
	if st.Swaps == 0 || st.ServingSeq == 1 {
		t.Fatalf("one NaN outcome kept the trainer from promoting: %+v", st)
	}
	if st.Dropped != 1 {
		t.Fatalf("dropped %d outcomes, want the one NaN outcome", st.Dropped)
	}
	for _, l := range m.candidate.Layers {
		for _, w := range l.W {
			if w != w {
				t.Fatal("candidate weights went NaN")
			}
		}
	}
}

// TestManagerDeterministicRetrain pins the in-daemon trainer's determinism:
// the same feedback sequence must reproduce bit-identical weights, so a
// retrained model is as reproducible as an offline fixed-seed run.
func TestManagerDeterministicRetrain(t *testing.T) {
	run := func() (uint64, []byte, uint64) {
		base := constantBase(3)
		m := newManager(base)
		for _, o := range labeledStream(1500, base) {
			m.Observe(o)
			m.Pump()
		}
		v := m.serving
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

// driftStream feeds m n outcomes on one constant X with alternating labels,
// served right when good and wrong otherwise. Every network scores exactly
// half of any even window of it, so no candidate ever wins a shadow round,
// while the drift detector sees 100 % or 0 % live accuracy.
func driftStream(m *Manager, good bool, n int) {
	for i := 0; i < n; i++ {
		o := Outcome{X: []float32{1, 1}, Label: i % 2, Predicted: i % 2}
		if !good {
			o.Predicted = 1 - o.Label
		}
		m.Observe(o)
		m.Pump()
	}
}

// TestDriftDemotesThenFallsBack walks the full degradation cascade: a
// pinned baseline, two bad windows -> rollback to the previous version,
// two more -> no versions left -> heuristic fallback, reported unhealthy.
func TestDriftDemotesThenFallsBack(t *testing.T) {
	base := nn.New(3, 2, 8, 2)
	m := newManager(base)
	// Install a second version so there is something to demote.
	v2net := base.Clone()
	v2net.Layers[0].W[0] += 0.25
	v2, err := m.Promote(v2net)
	if err != nil {
		t.Fatal(err)
	}
	if m.serving != v2 {
		t.Fatal("manual promote did not install v2")
	}

	driftStream(m, true, driftWindow) // pins baseline = 1.0
	if st := m.Stats(); st.Baseline != 1.0 {
		t.Fatalf("baseline %v, want 1.0", st.Baseline)
	}
	driftStream(m, false, 2*driftWindow) // two bad windows -> demote to v1
	st := m.Stats()
	if st.Demotions != 1 || st.ServingSeq != 1 || st.Swaps != 2 {
		t.Fatalf("after bad windows: demotions %d serving %d swaps %d, want 1/1/2 (%+v)",
			st.Demotions, st.ServingSeq, st.Swaps, st)
	}
	if st.Fallback {
		t.Fatal("fell back before exhausting the version stack")
	}
	if !m.Healthy() {
		t.Fatal("unhealthy while a rollback target remained")
	}
	driftStream(m, false, 2*driftWindow) // v1 held to the same baseline -> fallback
	st = m.Stats()
	if !st.Fallback || m.Healthy() || st.Swaps != 2 {
		t.Fatalf("version stack exhausted but no fallback (or a trainer swap): %+v", st)
	}
}

func TestObserveNeverBlocks(t *testing.T) {
	m := newManager(nn.New(1, 2, 2))
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
	if got := m.Stats().Dropped; got != offers-feedbackBuffer {
		t.Fatalf("dropped %d, want %d (drops must be counted, never silent)", got, offers-feedbackBuffer)
	}
	if n := m.Pump(); n != feedbackBuffer {
		t.Fatalf("pumped %d, want %d", n, feedbackBuffer)
	}
}

// TestObserveRejectsMalformedFeedback feeds one outcome that does not fit
// the serving network ahead of a full minibatch of good ones. Observe
// rejects and counts it alone: the minibatch trains, and the trained
// weights are those of the good outcomes by themselves.
func TestObserveRejectsMalformedFeedback(t *testing.T) {
	base := nn.New(1, 2, 4, 2)
	good := labeledStream(minibatch, base)
	want := newManager(base)
	for _, o := range good {
		want.Observe(o)
	}
	want.Pump()
	for _, c := range []struct {
		name string
		o    Outcome
	}{
		{"3-wide X", Outcome{X: []float32{1, 1, 1}, Label: 1}},
		{"1-wide X", Outcome{X: []float32{1}, Label: 1}},
		{"nil X", Outcome{Label: 1}},
		{"label -1", Outcome{X: []float32{1, 1}, Label: -1}},
		{"label 2", Outcome{X: []float32{1, 1}, Label: 2}},
		{"NaN feature", Outcome{X: []float32{float32(math.NaN()), 1}, Label: 1}},
		{"+Inf feature", Outcome{X: []float32{1, float32(math.Inf(1))}, Label: 1}},
		{"-Inf feature", Outcome{X: []float32{float32(math.Inf(-1)), 1}, Label: 0}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := newManager(base)
			if m.Observe(c.o) {
				t.Fatal("malformed outcome accepted")
			}
			for _, o := range good {
				m.Observe(o)
			}
			if n := m.Pump(); n != minibatch {
				t.Fatalf("pumped %d, want %d", n, minibatch)
			}
			st := m.Stats()
			if st.Dropped != 1 || st.RetrainSteps != 1 || st.SamplesSeen != minibatch {
				t.Fatalf("dropped %d, steps %d, samples %d: want the one malformed outcome dropped and one full step",
					st.Dropped, st.RetrainSteps, st.SamplesSeen)
			}
			if !bytes.Equal(m.candidate.Marshal(), want.candidate.Marshal()) {
				t.Fatal("the malformed outcome changed the trained weights")
			}
		})
	}
}
