package linnos

import (
	"testing"
	"time"

	"lakego/internal/batcher"
	"lakego/internal/nn"
)

// TestBatchedRoutingMatchesUnbatched: the batcher opt-in path must produce
// the same predictions as both unbatched paths, request by request.
func TestBatchedRoutingMatchesUnbatched(t *testing.T) {
	rt := boot(t)
	pred, err := NewPredictor(rt, Base, nn.New(3, Base.Sizes()...))
	if err != nil {
		t.Fatal(err)
	}
	cfg := batcher.DefaultConfig()
	cfg.Linger = 0
	b := batcher.New(rt, cfg)
	if err := pred.Runner().EnableBatching(b); err != nil {
		t.Fatal(err)
	}
	c := b.Client("queue-0")

	batch := make([][]float32, 16)
	for i := range batch {
		batch[i] = FeatureVector(i*7, []time.Duration{time.Duration(i) * 300 * time.Microsecond})
	}
	batched, err := pred.InferBatched(c, batch)
	if err != nil {
		t.Fatal(err)
	}
	cpuPred, _ := pred.InferCPU(batch)
	lakePred, _, err := pred.InferLAKE(batch, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if batched[i] != cpuPred[i] || batched[i] != lakePred[i] {
			t.Fatalf("prediction %d differs: batched=%v cpu=%v lake=%v",
				i, batched[i], cpuPred[i], lakePred[i])
		}
	}
	st := b.Stats()
	if st.Requests != 1 || st.Flushes == 0 {
		t.Fatalf("unexpected batcher stats: %+v", st)
	}
}
