package features

import (
	"testing"
	"testing/quick"
	"time"
)

// vec is a vector told apart by its end timestamp.
func vec(i int) Vector { return Vector{TsEnd: time.Duration(i)} }

func TestWindowPushAndAt(t *testing.T) {
	w := newWindow(4)
	for i := 1; i <= 3; i++ {
		w.push(vec(i))
	}
	if w.n != 3 {
		t.Fatalf("n = %d, want 3", w.n)
	}
	for i := 0; i < 3; i++ {
		if got := w.at(i).TsEnd; got != time.Duration(i+1) {
			t.Fatalf("at(%d) = %d, want %d", i, got, i+1)
		}
	}
}

func TestWindowPushEvictsOldestWhenFull(t *testing.T) {
	w := newWindow(3)
	for i := 1; i <= 4; i++ {
		w.push(vec(i))
	}
	for i, want := range []time.Duration{2, 3, 4} {
		if got := w.at(i).TsEnd; got != want {
			t.Fatalf("at(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestWindowNewestAndPopOldest(t *testing.T) {
	w := newWindow(2)
	if _, ok := w.newest(); ok {
		t.Fatal("newest() on an empty window reported ok")
	}
	w.push(vec(1))
	w.push(vec(2))
	if v, _ := w.newest(); v.TsEnd != 2 {
		t.Fatalf("newest() = %d, want 2", v.TsEnd)
	}
	w.popOldest()
	if w.n != 1 || w.at(0).TsEnd != 2 {
		t.Fatalf("after popOldest: n=%d at(0)=%d, want 1 and 2", w.n, w.at(0).TsEnd)
	}
}

// Property: a window of capacity c holds exactly the last min(len(xs), c)
// vectors pushed, in push order.
func TestWindowQuickKeepsSuffix(t *testing.T) {
	f := func(xs []int32, capRaw uint8) bool {
		c := int(capRaw%31) + 1
		w := newWindow(c)
		for _, x := range xs {
			w.push(vec(int(x)))
		}
		keep := min(len(xs), c)
		snap := w.snapshot()
		if len(snap) != keep {
			return false
		}
		for i := 0; i < keep; i++ {
			if snap[i].TsEnd != time.Duration(xs[len(xs)-keep+i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
