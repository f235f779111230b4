package lifecycle

import (
	"bytes"
	"math"
	"testing"

	"lakego/internal/nn"
)

// fuzzOutcomes is how many outcomes one FuzzManagerObserve input expands
// to: past two shadow rounds and two drift windows, so the trainer steps,
// scores and may promote or demote.
const fuzzOutcomes = 600

// decodeOutcomes reads data as 4-byte records and cycles them into
// fuzzOutcomes outcomes for a 2-input, 2-class network. Per record: b0's
// low three bits pick X's width (2 five times in eight, else 3, 1 or nil),
// its bit 7 makes X[0] NaN, bit 6 makes the last feature +Inf and bit 5
// makes X[0] -Inf (NaN wins over it); b1's low
// three bits pick the label (0 or 1 six times in eight, else -1 or 2) and
// bit 4 the prediction; b2 and b3 are the first two features, in 32nds.
func decodeOutcomes(data []byte) []Outcome {
	n := len(data) / 4
	if n == 0 {
		return nil
	}
	widths := [8]int{2, 2, 2, 2, 3, 1, 0, 2}
	labels := [8]int{0, 1, 0, 1, 0, 1, -1, 2}
	out := make([]Outcome, fuzzOutcomes)
	for i := range out {
		b := data[4*(i%n):]
		w := widths[b[0]&7]
		var x []float32
		for j := 0; j < w; j++ {
			x = append(x, float32(int8(b[2+j%2]))/32)
		}
		if w > 0 && b[0]&0x20 != 0 {
			x[0] = float32(math.Inf(-1))
		}
		if w > 0 && b[0]&0x80 != 0 {
			x[0] = float32(math.NaN())
		}
		if w > 0 && b[0]&0x40 != 0 {
			x[w-1] = float32(math.Inf(1))
		}
		out[i] = Outcome{X: x, Label: labels[b[1]&7], Predicted: int(b[1]>>4) & 1}
	}
	return out
}

// FuzzManagerObserve feeds arbitrary outcome streams through Observe and
// Pump. Pump must never panic; every outcome that does not fit the network
// or holds a NaN or infinite feature must be rejected and counted; and the
// stream must train the same weights, and serve the same version, as its
// well-formed outcomes alone. Seeds in testdata/fuzz/FuzzManagerObserve mix
// good outcomes with wrong widths, nil X, labels -1 and 2, and NaN and +Inf
// features; the seeds below add one NaN, one +Inf and one -Inf feature
// each among good outcomes.
func FuzzManagerObserve(f *testing.F) {
	f.Add([]byte{0, 0, 0x20, 0xe0, 0, 1, 0xe0, 0x20})
	f.Add([]byte{0, 0, 0x20, 0xe0, 0x80, 1, 0xe0, 0x20, 0, 1, 0xe0, 0x20})
	f.Add([]byte{0, 0, 0x20, 0xe0, 0x40, 1, 0xe0, 0x20, 0, 1, 0xe0, 0x20})
	f.Add([]byte{0, 0, 0x20, 0xe0, 0x20, 1, 0xe0, 0x20, 0, 1, 0xe0, 0x20})
	f.Fuzz(func(t *testing.T, data []byte) {
		base := nn.New(1, 2, 4, 2)
		all, fit := newManager(base), newManager(base)
		var malformed uint64
		for _, o := range decodeOutcomes(data) {
			fits := len(o.X) == 2 && o.Label >= 0 && o.Label < 2
			for _, v := range o.X {
				fits = fits && v-v == 0 // NaN and ±Inf leave NaN
			}
			if fits {
				fit.Observe(o)
				fit.Pump()
			} else {
				malformed++
			}
			all.Observe(o)
			all.Pump()
		}
		got, want := all.Stats(), fit.Stats()
		if got.Dropped != malformed {
			t.Fatalf("dropped %d outcomes, want the %d malformed ones", got.Dropped, malformed)
		}
		got.Dropped = 0
		if got != want {
			t.Fatalf("malformed outcomes changed the lifecycle: %+v, well-formed alone %+v", got, want)
		}
		if !bytes.Equal(all.candidate.Marshal(), fit.candidate.Marshal()) {
			t.Fatal("malformed outcomes changed the trained weights")
		}
	})
}
