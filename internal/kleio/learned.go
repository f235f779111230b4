package kleio

import (
	"fmt"
	"math/rand"

	"lakego/internal/nn"
)

// LearnedScheduler is the Kleio design point: an LSTM trained on per-page
// access-count histories predicts next-interval hotness, anticipating the
// phase changes that history-based heuristics chase one interval behind
// ("Kleio ... implements a LSTM-based classifier, which makes better
// decisions than a history based solution", §7.2).
type LearnedScheduler struct {
	model *nn.LSTM
	// norm scales raw access counts into the model's input range.
	norm float32
}

// countNorm is the normalization divisor for access counts.
const countNorm = 64

// seq is the model input for one page: its history, normalized.
func (s *LearnedScheduler) seq(h PageHistory) []float32 {
	seq := make([]float32, HistoryLen)
	for t, v := range h {
		seq[t] = v / s.norm
	}
	return seq
}

// PredictHot implements Scheduler.
func (s *LearnedScheduler) PredictHot(hist []PageHistory) []bool {
	out := make([]bool, len(hist))
	for i, h := range hist {
		out[i] = s.model.Predict(s.seq(h)) == 1
	}
	return out
}

// TrainScheduler fits an LSTM scheduler on histories harvested from an
// access pattern, labeled with ground-truth next-interval hotness. hidden
// sets the (single-layer) width; epochs the BPTT passes. Returns the
// scheduler and its training accuracy.
func TrainScheduler(seed int64, pages, intervals, hidden, epochs int) (*LearnedScheduler, float64, error) {
	if intervals <= 2+HistoryLen/2 {
		return nil, 0, fmt.Errorf("kleio: need more than %d intervals to harvest histories", 2+HistoryLen/2)
	}
	pattern := NewAccessPattern(seed, pages)
	hist := make([]PageHistory, pages)
	var seqs [][]float32
	var labels []int
	sched := &LearnedScheduler{norm: countNorm}
	for it := 0; it < intervals; it++ {
		// Harvest from interval 2 onward, including the zero-padded
		// warm-up windows: deployed schedulers see exactly those
		// histories for the first HistoryLen intervals after boot.
		if it >= 2 {
			truth := pattern.HotNext()
			for p := 0; p < pages; p++ {
				seqs = append(seqs, sched.seq(hist[p]))
				label := 0
				if truth[p] {
					label = 1
				}
				labels = append(labels, label)
			}
		}
		counts := pattern.NextInterval()
		for p := range hist {
			copy(hist[p][:HistoryLen-1], hist[p][1:])
			hist[p][HistoryLen-1] = counts[p]
		}
	}
	m := nn.NewLSTM(seed, 1, []int{hidden}, 2)
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(seqs))
	const minibatch = 32
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for at := 0; at < len(idx); at += minibatch {
			end := at + minibatch
			if end > len(idx) {
				end = len(idx)
			}
			bs := make([][]float32, 0, end-at)
			bl := make([]int, 0, end-at)
			for _, i := range idx[at:end] {
				bs = append(bs, seqs[i])
				bl = append(bl, labels[i])
			}
			if _, err := m.TrainBatch(bs, bl, 0.5); err != nil {
				return nil, 0, err
			}
		}
	}
	sched.model = m
	return sched, m.Accuracy(seqs, labels), nil
}
