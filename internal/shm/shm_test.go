package shm

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAllocAndZeroCopyVisibility(t *testing.T) {
	r, err := NewRegion(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	// Kernel domain writes...
	copy(b.Bytes(), []byte("feature-vector"))
	// ...user domain resolves the same offset and sees the bytes with no copy.
	view, err := r.At(b.Offset(), b.Size())
	if err != nil {
		t.Fatal(err)
	}
	if string(view[:14]) != "feature-vector" {
		t.Fatalf("user view = %q", view[:14])
	}
	// And mutations flow the other way too.
	view[0] = 'F'
	if b.Bytes()[0] != 'F' {
		t.Fatal("kernel view did not observe user write: not zero-copy")
	}
}

func TestFreeReturnsSpace(t *testing.T) {
	r, _ := NewRegion(1 << 10)
	b, err := r.Alloc(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Alloc(64); err == nil {
		t.Fatal("alloc on full region succeeded")
	}
	if err := r.Free(b); err != nil {
		t.Fatal(err)
	}
	if r.Used() != 0 {
		t.Fatalf("Used = %d after free", r.Used())
	}
	if _, err := r.Alloc(64); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
}

func TestFreeForeignBufferRejected(t *testing.T) {
	r1, _ := NewRegion(1 << 10)
	r2, _ := NewRegion(1 << 10)
	b, _ := r1.Alloc(64)
	if err := r2.Free(b); err == nil {
		t.Fatal("freeing foreign buffer succeeded")
	}
	if err := r1.Free(Buffer{}); err == nil {
		t.Fatal("freeing the zero Buffer succeeded")
	}
	// A Buffer is a value, so a stale copy outlives the allocation: the
	// second Free of one must fail and leave the accounting alone.
	if err := r1.Free(b); err != nil {
		t.Fatal(err)
	}
	if err := r1.Free(b); err == nil {
		t.Fatal("double free succeeded")
	}
	if r1.Used() != 0 || r2.Used() != 0 {
		t.Fatalf("used after rejected frees: %d and %d, want 0", r1.Used(), r2.Used())
	}
}

func TestAtBoundsChecks(t *testing.T) {
	r, _ := NewRegion(100)
	for _, c := range []struct{ off, size int64 }{
		{-1, 10}, {0, -1}, {90, 20}, {101, 1},
	} {
		if _, err := r.At(c.off, c.size); err == nil {
			t.Errorf("At(%d, %d) succeeded, want error", c.off, c.size)
		}
	}
	if _, err := r.At(0, 100); err != nil {
		t.Errorf("At(0, 100) failed: %v", err)
	}
}

// At's operands come off the wire, so a pair whose sum wraps past MaxInt64
// must be an error, not a panic on the slice expression.
func TestAtRejectsWrappingRanges(t *testing.T) {
	r, _ := NewRegion(1 << 10)
	n := r.Size()
	for _, c := range []struct {
		off, size int64
		ok        bool
	}{
		{math.MaxInt64, 1, false},
		{1, math.MaxInt64, false},
		{math.MaxInt64, math.MaxInt64, false},
		{n, 0, true},
		{n, 1, false},
	} {
		view, err := r.At(c.off, c.size)
		if ok := err == nil; ok != c.ok {
			t.Errorf("At(%d, %d): err = %v, want ok = %v", c.off, c.size, err, c.ok)
		} else if ok && int64(len(view)) != c.size {
			t.Errorf("At(%d, %d) = %d bytes", c.off, c.size, len(view))
		}
	}
}

// The race detector sees accesses to heap bytes only, so under -race a
// region must be heap memory, or every race on a ring payload or a staged
// row would go unreported.
func TestRaceBuildBacksRegionsWithHeap(t *testing.T) {
	if raceEnabled && !heapBacked {
		t.Fatal("regions are mapped under -race: the detector cannot see their bytes")
	}
}

func TestNewRegionRejectsBadSize(t *testing.T) {
	if _, err := NewRegion(0); err == nil {
		t.Fatal("NewRegion(0) succeeded")
	}
	if _, err := NewRegion(-5); err == nil {
		t.Fatal("NewRegion(-5) succeeded")
	}
}

// Property: concurrent-free buffers never overlap in the region.
func TestQuickBuffersDisjoint(t *testing.T) {
	f := func(sizes []uint16) bool {
		r, err := NewRegion(1 << 20)
		if err != nil {
			return false
		}
		type span struct{ lo, hi int64 }
		var spans []span
		for _, s := range sizes {
			b, err := r.Alloc(int64(s) + 1)
			if err != nil {
				break
			}
			spans = append(spans, span{b.Offset(), b.Offset() + b.Size()})
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
