package linnos

import (
	"fmt"

	"lakego/internal/batcher"
)

// Cross-client batching opt-in: on a live system many block devices (and
// their submission queues) classify I/Os concurrently, but each queue on
// its own accumulates only a handful of requests per window — below the
// Fig 8 crossover of 8. Routing predictors through the lakeD batcher
// (Runner().EnableBatching) coalesces those independent streams into one
// profitable GPU launch; these wrappers add only the logit decode.

// SubmitBatched stages one client's feature batch with the batcher and
// returns the pending handle; combine with WaitSlow to collect
// predictions.
func (p *Predictor) SubmitBatched(c *batcher.Client, batch [][]float32) (*batcher.Pending, error) {
	return c.Submit(p.runner.BatchModelName(), batch)
}

// WaitSlow resolves a SubmitBatched handle into per-I/O slow-vs-fast
// predictions, decoding logits exactly as the unbatched paths do.
func WaitSlow(pending *batcher.Pending) ([]bool, error) {
	out, err := pending.Wait()
	if err != nil {
		return nil, err
	}
	for _, logits := range out {
		if len(logits) != 2 {
			return nil, fmt.Errorf("linnos: batched output width %d, want 2", len(logits))
		}
	}
	return slowOf(out), nil
}

// InferBatched classifies the batch through the cross-client batcher:
// SubmitBatched + WaitSlow. Predictions are bit-identical to InferCPU and
// InferLAKE; only the request's scheduling differs.
func (p *Predictor) InferBatched(c *batcher.Client, batch [][]float32) ([]bool, error) {
	pending, err := p.SubmitBatched(c, batch)
	if err != nil {
		return nil, err
	}
	return WaitSlow(pending)
}
