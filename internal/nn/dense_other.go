//go:build !amd64 || purego

package nn

// forward is the portable dense kernel, the same input-major loop as the
// amd64 assembly: each output starts at its bias, then x[k] scales weight
// row k into every output, k ascending, so each output is the scalar dot
// product's arithmetic. The float32 conversion rounds each product before
// its add: without it the compiler may fuse the two (arm64 emits FMADDS),
// and logits would differ between platforms.
func (l *Layer) forward(x, y []float32) {
	y = y[:l.Out]
	copy(y, l.B[:l.Out])
	for k, xv := range x[:l.In] {
		for o, w := range l.W[k*l.Out:][:l.Out] {
			y[o] += float32(w * xv)
		}
	}
	if l.Act == ReLU {
		for o, s := range y {
			y[o] = relu(s)
		}
	}
}

// forwardLanes is forward on rows consecutive rows, one at a time.
func (l *Layer) forwardLanes(x, y []float32, rows int) {
	for r := range rows {
		l.forward(x[r*l.In:], y[r*l.Out:])
	}
}
