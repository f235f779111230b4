//go:build linux && amd64 && !purego

package nn

import (
	"math"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n float32s that end where a PROT_NONE page begins, so a
// read one float past the slice faults.
func guarded(t *testing.T, n int) []float32 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (4*n+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[size-page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[size-page-4*n])), n)
}

// dense reads w[:in*out], b[:out] and x[:in] and nothing past them — each
// ends at a guard page, so an over-read in a 128- or 64-output pass or in
// the last out mod 32 outputs faults — and writes y[:out] and nothing past
// it, and the outputs it writes are the scalar reference's, on each kernel.
// Widths either side of one, two and three 128-output passes cover every
// pass mix that follows them.
func TestDenseStaysInBounds(t *testing.T) { EachKernel(t, testDenseStaysInBounds) }

func testDenseStaysInBounds(t *testing.T) {
	const canary = 0x7FC0DEAD
	for _, in := range []int{1, 9, 31, 33} {
		for _, out := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 40, 63, 64, 65, 96, 97,
			127, 128, 129, 191, 192, 255, 256, 257, 320, 384, 385} {
			n := New(int64(in*100+out), in, out)
			l := n.Layers[0]
			l.Act = ReLU
			w, b, x := guarded(t, in*out), guarded(t, out), guarded(t, in)
			copy(w, l.W)
			copy(b, l.B)
			for k := range x {
				x[k] = float32(k%5) - 2
			}
			y := make([]float32, out+16)
			for i := range y {
				y[i] = math.Float32frombits(canary)
			}
			dense(w, b, x, y[:out], in, out, true)
			want := n.forwardRef(x)
			for i, v := range y {
				if i >= out {
					if math.Float32bits(v) != canary {
						t.Fatalf("in=%d out=%d: y[%d] past the end written", in, out, i)
					}
				} else if !sameBits(v, want[i]) {
					t.Fatalf("in=%d out=%d: y[%d] = %x, scalar reference %x", in, out, i, math.Float32bits(v), math.Float32bits(want[i]))
				}
			}
		}
	}
}

// lanesKernels are the kernels that run rows as lanes on this machine, by
// the rows they take: denseRows4, and denseRows8 where hasAVX.
func lanesKernels() map[int]func(w, b, x, y []float32, in, out int, relu bool) {
	k := map[int]func(w, b, x, y []float32, in, out int, relu bool){4: denseRows4}
	if hasAVX {
		k[8] = denseRows8
	}
	return k
}

// denseRows4 and denseRows8 read w[:in*out], b[:out] and x[:rows*in] and
// nothing past them — each ends at a guard page, so an over-read of the last
// row, of a group of four k or of the clamped chains faults — and write
// y[:rows*out] and nothing either side of it, and lane r of their outputs is
// the scalar reference on row r. Input widths cover no k, a tail alone, one
// group of four, groups and a tail, and LinnOS's 256.
func TestDenseRows4StaysInBounds(t *testing.T) { EachKernel(t, testDenseRowsStayInBounds) }

func testDenseRowsStayInBounds(t *testing.T) {
	const canary, pad = 0x7FC0DEAD, 16
	for rows, kernel := range lanesKernels() {
		for _, in := range []int{0, 1, 2, 3, 4, 5, 7, 8, 31, 256} {
			for _, out := range []int{1, 2, 3, 4} {
				n := New(int64(in*100+out), max(in, 1), out)
				l := n.Layers[0]
				l.In, l.W, l.Act = in, l.W[:in*out], ReLU
				w, b, x := guarded(t, in*out), guarded(t, out), guarded(t, rows*in)
				copy(w, l.W)
				copy(b, l.B)
				for k := range x {
					x[k] = float32(k%7) - 3
				}
				buf := make([]float32, pad+rows*out+pad)
				for i := range buf {
					buf[i] = math.Float32frombits(canary)
				}
				kernel(w, b, x, buf[pad:pad+rows*out], in, out, true)
				for i, v := range buf {
					if (i < pad || i >= pad+rows*out) && math.Float32bits(v) != canary {
						t.Fatalf("rows=%d in=%d out=%d: y[%d] outside the rows written", rows, in, out, i-pad)
					}
				}
				y := buf[pad : pad+rows*out]
				for r := 0; r < rows; r++ {
					want := n.forwardRef(x[r*in : (r+1)*in])
					for o, v := range y[r*out : (r+1)*out] {
						if !sameBits(v, want[o]) {
							t.Fatalf("rows=%d in=%d out=%d: row %d output %d = %x, scalar reference %x", rows, in, out, r, o, math.Float32bits(v), math.Float32bits(want[o]))
						}
					}
				}
			}
		}
	}
}

// Each lane of denseRows4 and denseRows8 carries Layer.forward's bits on its
// own row, NaN payloads included: the rows hold a NaN of a different payload
// each, ±Inf, -0 that a positive weight keeps (and ReLU must keep), an
// overflow to +Inf and values ReLU zeroes, placed at the first k, in a group
// of four and in the in mod 4 tail, so a lane that takes a neighbour's x, a
// dropped or misplaced k or a transpose that swaps two rows changes some
// output's bits.
func TestDenseRowsLanesMatchForward(t *testing.T) { EachKernel(t, testDenseRowsLanesMatchForward) }

func testDenseRowsLanesMatchForward(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	nan := func(bits uint32) float32 { return math.Float32frombits(bits) }
	for rows, kernel := range lanesKernels() {
		for _, in := range []int{1, 3, 4, 5, 7, 8, 9, 31} {
			for _, out := range []int{1, 2, 3, 4} {
				for _, act := range []Activation{Linear, ReLU} {
					n := New(int64(in*10+out), in, out)
					l := n.Layers[0]
					l.Act = act
					l.B[0] = negZero
					for k := 0; k < in; k++ {
						*weight(l, 0, k) = float32(math.Abs(float64(*weight(l, 0, k)))) + 0.5
					}
					rng := rand.New(rand.NewSource(int64(rows*1000 + in*10 + out)))
					x := make([]float32, 8*in)
					for i := range x {
						x[i] = rng.Float32()*4 - 2
					}
					row := func(r int) []float32 { return x[r*in : (r+1)*in] }
					for k := range row(1) {
						row(1)[k] = negZero
						row(5)[k] = 3e38
						row(6)[k] = -rng.Float32() - 1
					}
					row(2)[in-1] = inf
					row(3)[0] = nan(0x7FC00123)
					row(4)[in/2] = -inf
					row(7)[in-1] = nan(0xFFC00456)
					row(0)[in/2] = nan(0x7FC00789)
					y := make([]float32, 8*out)
					for r := 0; r < 8; r += rows {
						kernel(l.W, l.B, x[r*in:], y[r*out:], in, out, act == ReLU)
					}
					for r := 0; r < 8; r++ {
						want := make([]float32, out)
						l.forward(row(r), want)
						for o, v := range y[r*out : (r+1)*out] {
							if math.Float32bits(v) != math.Float32bits(want[o]) {
								t.Fatalf("rows=%d in=%d out=%d act=%d: row %d output %d = %#08x, forward %#08x", rows, in, out, act, r, o, math.Float32bits(v), math.Float32bits(want[o]))
							}
						}
					}
				}
			}
		}
	}
}
