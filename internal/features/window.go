package features

// window is a registry's capture window: a fixed-capacity circular buffer
// of committed vectors (§5.1: "Feature vectors are stored in memory in a
// circular buffer sized according to the window parameter"). When full,
// push evicts the oldest vector. The registry's mutex guards it.
type window struct {
	buf   []Vector
	start int // index of the oldest vector
	n     int // live vectors
}

func newWindow(capacity int) *window { return &window{buf: make([]Vector, capacity)} }

// push appends v, evicting the oldest vector when the window is full.
func (w *window) push(v Vector) {
	if w.n == len(w.buf) {
		w.buf[w.start] = v
		w.start = (w.start + 1) % len(w.buf)
		return
	}
	w.buf[(w.start+w.n)%len(w.buf)] = v
	w.n++
}

// at returns the i-th live vector counting from the oldest (0) to the
// newest (n-1).
func (w *window) at(i int) Vector { return w.buf[(w.start+i)%len(w.buf)] }

// newest returns the most recently pushed vector; ok is false when the
// window is empty.
func (w *window) newest() (v Vector, ok bool) {
	if w.n == 0 {
		return v, false
	}
	return w.at(w.n - 1), true
}

// popOldest drops the oldest vector of a non-empty window.
func (w *window) popOldest() {
	w.buf[w.start] = Vector{}
	w.start = (w.start + 1) % len(w.buf)
	w.n--
}

// snapshot returns the live vectors oldest first in a new slice.
func (w *window) snapshot() []Vector {
	out := make([]Vector, w.n)
	for i := range out {
		out[i] = w.at(i)
	}
	return out
}
