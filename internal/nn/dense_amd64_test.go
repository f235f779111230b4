//go:build amd64 && !purego

package nn

import (
	"math"
	"testing"
)

// denseLanes writes y[:4*out] and nothing past it, whatever Out mod 4: the
// aliased rows of a last partial block must land on the last output. A stray
// store there would not change a logit — it would hit the other half of
// ForwardSlab's scratch, or past its end.
func TestDenseLanesStaysInBounds(t *testing.T) {
	const in, canary = 3, 0x7FC0DEAD
	x := make([]float32, 4*in)
	for i := range x {
		x[i] = float32(i)
	}
	for out := 1; out <= 9; out++ {
		l := New(int64(out), in, out).Layers[0]
		buf := make([]float32, 4*out+16)
		for i := range buf {
			buf[i] = math.Float32frombits(canary)
		}
		denseLanes(l.W, l.B, x, buf[:4*out], in, out, true)
		for i, v := range buf {
			if written := math.Float32bits(v) != canary; written != (i < 4*out) {
				t.Fatalf("out=%d: y[%d] written %v, want %v", out, i, written, i < 4*out)
			}
		}
	}
}
