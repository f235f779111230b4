package shm

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, total, align int64) *allocator {
	t.Helper()
	a, err := newAllocator(total, align, bestFit)
	if err != nil {
		t.Fatalf("newAllocator(%d, %d, bestFit): %v", total, align, err)
	}
	return a
}

func TestNewRejectsBadArgs(t *testing.T) {
	cases := []struct{ total, align int64 }{
		{0, 8}, {-1, 8}, {64, 0}, {64, -8}, {64, 3}, {64, 12},
	}
	for _, c := range cases {
		if _, err := newAllocator(c.total, c.align, bestFit); err == nil {
			t.Errorf("newAllocator(%d, %d, bestFit) succeeded, want error", c.total, c.align)
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
	if _, err := a.Alloc(1); !errors.Is(err, errNoSpace) {
		t.Fatalf("alloc over capacity: err = %v, want errNoSpace", err)
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
	if err := a.Free(off); !errors.Is(err, errBadFree) {
		t.Fatalf("double free: err = %v, want errBadFree", err)
	}
	if err := a.Free(9999); !errors.Is(err, errBadFree) {
		t.Fatalf("bogus free: err = %v, want errBadFree", err)
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

// A size within align-1 of MaxInt64 wrapped negative when rounded up, so
// Alloc returned an offset, Used went negative and every later Alloc failed.
// Every size the region cannot hold is refused before rounding, and the
// allocator is unchanged.
func TestAllocHugeSizeRejected(t *testing.T) {
	for _, size := range []int64{math.MaxInt64, math.MaxInt64 - 63, math.MaxInt64 - 64, 1<<20 + 1} {
		a := mustNew(t, 1<<20, 64)
		if off, err := a.Alloc(size); !errors.Is(err, errNoSpace) {
			t.Fatalf("Alloc(%d) = %d, %v; want errNoSpace", size, off, err)
		}
		if a.Used() != 0 || a.FreeBlocks() != 1 {
			t.Fatalf("after Alloc(%d): Used() = %d, FreeBlocks() = %d; want 0, 1", size, a.Used(), a.FreeBlocks())
		}
		if off, err := a.Alloc(64); err != nil || off != 0 {
			t.Fatalf("Alloc(64) after Alloc(%d) = %d, %v; want 0, nil", size, off, err)
		}
	}
	r, err := NewRegion(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := r.Alloc(math.MaxInt64); !errors.Is(err, errNoSpace) {
		t.Fatalf("Region.Alloc(MaxInt64) = buffer at %d of %d bytes, %v; want errNoSpace", b.Offset(), b.Size(), err)
	}
	if got := r.Used(); got != 0 {
		t.Fatalf("Region.Used() = %d after a refused Alloc, want 0", got)
	}
	if _, err := r.Alloc(1 << 20); err != nil {
		t.Fatalf("Region.Alloc of the whole region after a refused Alloc: %v", err)
	}
}

// Property: after any interleaving of allocs and frees, live allocations
// never overlap and stay within the region.
func TestQuickNoOverlap(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a, err := newAllocator(1<<16, 8, bestFit)
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
		a, err := newAllocator(1<<20, 16, bestFit)
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

// Used is a running count; it must equal the sum over the offset index
// after every step of a seeded alloc/free sequence, failed calls included.
func TestUsedMatchesLiveSum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, err := newAllocator(1<<16, 64, bestFit)
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
		for _, e := range a.index {
			sum += e.size
		}
		if a.Used() != sum {
			t.Fatalf("step %d: Used() = %d, offset index sums to %d", step, a.Used(), sum)
		}
	}
	if len(live) == 0 || a.Used() == 0 {
		t.Fatal("sequence ended with nothing live; the check was vacuous")
	}
}

func BenchmarkPerfBestFitAllocFree(b *testing.B) {
	a, err := newAllocator(64<<20, 64, bestFit)
	if err != nil {
		b.Fatal(err)
	}
	offs := make([]int64, 0, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off, err := a.Alloc(int64(1024 + i%4096))
		if err != nil {
			// Region full: drain and continue.
			for _, o := range offs {
				a.Free(o)
			}
			offs = offs[:0]
			continue
		}
		offs = append(offs, off)
		if len(offs) == 128 {
			for _, o := range offs {
				a.Free(o)
			}
			offs = offs[:0]
		}
	}
}

// BenchmarkAblationAllocatorStrategy compares best-fit (the prototype's
// choice) with first-fit under a fragmenting churn workload, reporting
// failure rate and fragmentation.
func BenchmarkAblationAllocatorStrategy(b *testing.B) {
	for _, s := range []struct {
		name string
		s    placement
	}{{"bestfit", bestFit}, {"firstfit", firstFit}} {
		b.Run(s.name, func(b *testing.B) {
			var fails, frag float64
			for i := 0; i < b.N; i++ {
				a, err := newAllocator(1<<22, 64, s.s)
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(7))
				var live []int64
				failures := 0
				for op := 0; op < 20000; op++ {
					if rng.Intn(3) != 0 || len(live) == 0 {
						// Bimodal sizes fragment aggressively.
						size := int64(rng.Intn(256) + 64)
						if rng.Intn(8) == 0 {
							size = int64(rng.Intn(64<<10) + 1<<10)
						}
						off, err := a.Alloc(size)
						if err != nil {
							failures++
							continue
						}
						live = append(live, off)
					} else {
						j := rng.Intn(len(live))
						if err := a.Free(live[j]); err != nil {
							b.Fatal(err)
						}
						live = append(live[:j], live[j+1:]...)
					}
				}
				fails = float64(failures)
				frag = float64(a.FreeBlocks())
			}
			b.ReportMetric(fails, "alloc_failures")
			b.ReportMetric(frag, "free_blocks")
		})
	}
}
