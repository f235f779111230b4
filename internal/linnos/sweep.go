package linnos

import (
	"time"

	"lakego/internal/core"
	"lakego/internal/nn"
	"lakego/internal/offload"
)

// InferenceSweep measures I/O latency prediction time for each batch size
// on the CPU path and through LAKE (Fig 8). Timing is independent of the
// weights, so an untrained network of the right shape suffices.
func InferenceSweep(rt *core.Runtime, kind ModelKind, batches []int) ([]offload.SweepPoint, error) {
	pred, err := NewPredictor(rt, kind, nn.New(11, kind.Sizes()...))
	if err != nil {
		return nil, err
	}
	return offload.Sweep(pred.Runner(), batches, func(i int) []float32 {
		return FeatureVector(i%50, []time.Duration{
			time.Duration(i) * 10 * time.Microsecond,
			time.Duration(i) * 20 * time.Microsecond,
		})
	})
}
