//go:build amd64 && !purego

package nn

// dense is Layer.forward's arithmetic in SSE2, baseline amd64: y[o] = b[o] +
// w[o]*x[0] + ... + w[(in-1)*out+o]*x[in-1], then relu's ReLU if relu is set.
// It reads w[:in*out], b[:out], x[:in] and writes y[:out] unchecked.
//
//go:noescape
func dense(w, b, x, y []float32, in, out int, relu bool)

// forward runs the layer on one row through dense. Slicing each operand to
// what dense touches panics before dense could run past its memory.
func (l *Layer) forward(x, y []float32) {
	dense(l.W[:l.In*l.Out], l.B[:l.Out], x[:l.In], y[:l.Out], l.In, l.Out, l.Act == ReLU)
}
