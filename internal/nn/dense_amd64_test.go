//go:build linux && amd64 && !purego

package nn

import (
	"math"
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
// ends at a guard page, so an over-read in a 64-output pass or in the last
// out mod 32 outputs faults — and writes y[:out] and nothing past it, and the
// outputs it writes are the scalar reference's, on either kernel.
func TestDenseStaysInBounds(t *testing.T) { EachKernel(t, testDenseStaysInBounds) }

func testDenseStaysInBounds(t *testing.T) {
	const canary = 0x7FC0DEAD
	for _, in := range []int{1, 9, 31, 33} {
		for _, out := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 40, 63, 64, 65, 96, 97, 128, 256} {
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

// denseRows4 reads w[:in*out], b[:out] and x[:4*in] and nothing past them —
// each ends at a guard page, so an over-read of the fourth row or of the
// clamped chains faults — and writes y[:4*out] and nothing past it, and
// lane r of its outputs is the scalar reference on row r.
func TestDenseRows4StaysInBounds(t *testing.T) {
	const canary = 0x7FC0DEAD
	for _, in := range []int{1, 9, 31, 256} {
		for _, out := range []int{1, 2, 3, 4} {
			n := New(int64(in*100+out), in, out)
			l := n.Layers[0]
			l.Act = ReLU
			w, b, x := guarded(t, in*out), guarded(t, out), guarded(t, 4*in)
			copy(w, l.W)
			copy(b, l.B)
			for k := range x {
				x[k] = float32(k%7) - 3
			}
			y := make([]float32, 4*out+16)
			for i := range y {
				y[i] = math.Float32frombits(canary)
			}
			denseRows4(w, b, x, y[:4*out], in, out, true)
			for i := 4 * out; i < len(y); i++ {
				if math.Float32bits(y[i]) != canary {
					t.Fatalf("in=%d out=%d: y[%d] past the end written", in, out, i)
				}
			}
			for r := 0; r < 4; r++ {
				want := n.forwardRef(x[r*in : (r+1)*in])
				for o, v := range y[r*out : (r+1)*out] {
					if !sameBits(v, want[o]) {
						t.Fatalf("in=%d out=%d: row %d output %d = %x, scalar reference %x", in, out, r, o, math.Float32bits(v), math.Float32bits(want[o]))
					}
				}
			}
		}
	}
}
