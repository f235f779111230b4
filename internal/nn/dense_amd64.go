//go:build amd64 && !purego

package nn

// dense is Layer.forward's arithmetic: y[o] = b[o] + w[o]*x[0] + ... +
// w[(in-1)*out+o]*x[in-1], then relu's ReLU if relu is set. It runs 64
// outputs a pass in AVX where hasAVX, and the rest, or all of them on a
// baseline amd64 CPU, in SSE2. It reads w[:in*out], b[:out], x[:in] and
// writes y[:out] unchecked.
//
//go:noescape
func dense(w, b, x, y []float32, in, out int, relu bool)

// hasAVX reports, once, whether the CPU and the OS run AVX; dense reads it.
var hasAVX = cpuHasAVX()

func cpuHasAVX() bool

// denseRows4 is dense on four rows, one a SIMD lane, for 1 <= out <= 4. It
// reads w[:in*out], b[:out], x[:4*in] and writes y[:4*out] unchecked.
//
//go:noescape
func denseRows4(w, b, x, y []float32, in, out int, relu bool)

// denseRows8 is denseRows4 on eight rows in AVX; it runs only where hasAVX.
// It reads w[:in*out], b[:out], x[:8*in] and writes y[:8*out] unchecked.
//
//go:noescape
func denseRows8(w, b, x, y []float32, in, out int, relu bool)

// forward runs the layer on one row through dense. Slicing each operand to
// what dense touches panics before dense could run past its memory.
func (l *Layer) forward(x, y []float32) {
	dense(l.W[:l.In*l.Out], l.B[:l.Out], x[:l.In], y[:l.Out], l.In, l.Out, l.Act == ReLU)
}

// forwardLanes is forward on rows consecutive rows, 4 or 8, for
// 1 <= Out <= 4: eight as lanes of one pass through denseRows8 where hasAVX,
// else four at a time through denseRows4.
func (l *Layer) forwardLanes(x, y []float32, rows int) {
	w, b, in, out, relu := l.W[:l.In*l.Out], l.B[:l.Out], l.In, l.Out, l.Act == ReLU
	if rows == 8 && hasAVX {
		denseRows8(w, b, x[:8*in], y[:8*out], in, out, relu)
		return
	}
	for r := 0; r+4 <= rows; r += 4 {
		denseRows4(w, b, x[r*in:(r+4)*in], y[r*out:(r+4)*out], in, out, relu)
	}
}
