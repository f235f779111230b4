// Model-lifecycle micro-benchmarks: the cost of the serving-slot flip the
// inference hot path observes, and the per-outcome cost of the in-daemon
// online trainer (feedback channel -> minibatch SGD on the reusable
// gradient scratch -> shadow scoring).
package lake_test

import (
	"testing"

	"lakego/internal/core"
	"lakego/internal/lifecycle"
	"lakego/internal/linnos"
	"lakego/internal/nn"
)

// BenchmarkPerfModelSwap measures the hot-swap itself: shape validation
// plus one atomic pointer store. This is the entire cost an in-flight
// inference path can ever contend with — batches load the pointer once,
// so a swap is never observed mid-batch.
func BenchmarkPerfModelSwap(b *testing.B) {
	benchOp(b, newModelSwap(b))
}

// newModelSwap returns one flip of a LinnOS predictor between two networks
// of its shape; TestAllocsSubstrate/ModelSwap gates it at 0 allocs.
func newModelSwap(tb testing.TB) func() {
	rt, err := core.New(core.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rt.Close)
	a := nn.New(1, linnos.Base.Sizes()...)
	pred, err := linnos.NewPredictor(rt, linnos.Base, a)
	if err != nil {
		tb.Fatal(err)
	}
	nets, i := [2]*nn.Network{a, a.Clone()}, 0
	return func() {
		i++
		if err := pred.SwapNet(nets[i&1]); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkPerfRetrainStep measures the amortized per-outcome cost of the
// online trainer: bounded-channel handoff, drift window accounting,
// shadow ring insert, and (every 64 outcomes) one SGD step on the
// reusable scratch.
func BenchmarkPerfRetrainStep(b *testing.B) {
	benchOp(b, newRetrainStep(b))
}

// newRetrainStep returns one outcome observed and pumped through an online
// trainer, which must drop none; TestAllocsSubstrate/RetrainStep gates it
// at 0 allocs.
func newRetrainStep(tb testing.TB) func() {
	rt, err := core.New(core.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rt.Close)
	m, err := lifecycle.New(rt, "bench", nn.New(1, 2, 8, 2))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if d := m.Stats().Dropped; d != 0 {
			tb.Errorf("trainer dropped %d outcomes", d)
		}
	})
	outs, i := [2]lifecycle.Outcome{
		{X: []float32{-1, -1}, Predicted: 0, Label: 0},
		{X: []float32{1, 1}, Predicted: 0, Label: 1},
	}, 0
	return func() {
		i++
		m.Observe(outs[i&1])
		m.Pump()
	}
}
