package shm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The reference allocator below is the map-indexed best-fit allocator that
// preceded the open-addressed offset index, kept verbatim apart from the ref
// prefix on each name and the size check before rounding, which the live
// allocator gained with the index. FuzzBestFitDifferential holds the live
// allocator to it.

// refAllocator hands out non-overlapping [offset, offset+size) ranges inside a
// region of fixed total size. It is not safe for concurrent use; Region
// serializes access.
type refAllocator struct {
	total    int64
	align    int64
	strategy placement
	free     []block         // sorted by offset, no two adjacent
	live     map[int64]int64 // offset -> size
	used     int64           // sum of live sizes
}

// newRefAllocator creates an allocator over a region of total bytes with
// placement strategy s, rounding every allocation up to a multiple of
// align. align must be a power of two.
func newRefAllocator(total, align int64, s placement) (*refAllocator, error) {
	if total <= 0 {
		return nil, fmt.Errorf("total %d must be positive", total)
	}
	if align <= 0 || align&(align-1) != 0 {
		return nil, fmt.Errorf("align %d must be a positive power of two", align)
	}
	if s != bestFit && s != firstFit {
		return nil, fmt.Errorf("unknown strategy %d", s)
	}
	return &refAllocator{
		total:    total,
		align:    align,
		strategy: s,
		free:     []block{{off: 0, size: total}},
		live:     make(map[int64]int64),
	}, nil
}

// Used returns the number of bytes currently allocated (after alignment).
func (a *refAllocator) Used() int64 { return a.used }

// Free-block count; exposed for fragmentation diagnostics and tests.
func (a *refAllocator) FreeBlocks() int { return len(a.free) }

// Alloc reserves size bytes and returns the offset of the reservation.
func (a *refAllocator) Alloc(size int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("alloc size %d must be positive", size)
	}
	if size > a.total&^(a.align-1) {
		return 0, fmt.Errorf("%w: need %d bytes, region is %d", errNoSpace, size, a.total)
	}
	need := (size + a.align - 1) &^ (a.align - 1)
	best := -1
	for i, b := range a.free {
		if b.size < need {
			continue
		}
		if a.strategy == firstFit {
			best = i
			break
		}
		if best == -1 || b.size < a.free[best].size {
			best = i
		}
	}
	if best == -1 {
		return 0, fmt.Errorf("%w: need %d bytes, %d free in %d blocks",
			errNoSpace, need, a.total-a.used, len(a.free))
	}
	b := a.free[best]
	off := b.off
	if b.size == need {
		a.free = append(a.free[:best], a.free[best+1:]...)
	} else {
		a.free[best] = block{off: b.off + need, size: b.size - need}
	}
	a.live[off] = need
	a.used += need
	return off, nil
}

// Free releases the allocation that starts at off, coalescing with adjacent
// free blocks.
func (a *refAllocator) Free(off int64) error {
	size, ok := a.live[off]
	if !ok {
		return fmt.Errorf("%w: offset %d", errBadFree, off)
	}
	delete(a.live, off)
	a.used -= size

	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].off > off })
	nb := block{off: off, size: size}
	// Coalesce with predecessor.
	if i > 0 && a.free[i-1].off+a.free[i-1].size == nb.off {
		nb.off = a.free[i-1].off
		nb.size += a.free[i-1].size
		a.free = append(a.free[:i-1], a.free[i:]...)
		i--
	}
	// Coalesce with successor.
	if i < len(a.free) && nb.off+nb.size == a.free[i].off {
		nb.size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
	a.free = append(a.free, block{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = nb
	return nil
}

// Allocator ops of FuzzBestFitDifferential's byte program: each op is one
// byte (its value mod bestFitOps), followed by an operand byte or an
// explicit little-endian 8-byte value.
const (
	bopAlloc        = iota // allocate operand² + 1 bytes
	bopAllocSize           // allocate an explicit size (8 bytes follow): huge, zero or negative
	bopFree                // free an offset once handed out, live or already freed (operand picks it)
	bopFreeInterior        // free an offset inside a handed-out allocation (operand picks it and the step)
	bopFreeOffset          // free an explicit offset (8 bytes follow), most never handed out
	bopChurn               // allocate operand%8 + 1 slots of 64 bytes, then free every other live one
	bestFitOps
)

// errClass names the sentinel an allocator error wraps, "" for nil.
func errClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, errNoSpace):
		return "no space"
	case errors.Is(err, errBadFree):
		return "bad free"
	}
	return "other"
}

// runBestFitProgram runs one op program against the live allocator and the
// reference over a region of total bytes, failing on the first step where
// an offset, an error class, Used or FreeBlocks differ, or where the offset
// index holds other than one cell per live allocation.
func runBestFitProgram(t *testing.T, total, align int64, s placement, prog []byte) {
	t.Helper()
	a, err := newAllocator(total, align, s)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefAllocator(total, align, s)
	if err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("total %d align %d strategy %d", total, align, s)
	var hist []int64 // every offset handed out, in order
	next := func() (byte, bool) {
		if len(prog) == 0 {
			return 0, false
		}
		b := prog[0]
		prog = prog[1:]
		return b, true
	}
	val8 := func() (int64, bool) {
		if len(prog) < 8 {
			prog = nil
			return 0, false
		}
		v := int64(binary.LittleEndian.Uint64(prog))
		prog = prog[8:]
		return v, true
	}
	alloc := func(op int, size int64) {
		t.Helper()
		got, gerr := a.Alloc(size)
		want, werr := ref.Alloc(size)
		if errClass(gerr) != errClass(werr) || gerr == nil && got != want {
			t.Fatalf("%s op %d: Alloc(%d) = %d, %v; reference %d, %v", name, op, size, got, gerr, want, werr)
		}
		if gerr == nil {
			hist = append(hist, got)
		}
	}
	free := func(op int, off int64) {
		t.Helper()
		gerr, werr := a.Free(off), ref.Free(off)
		if errClass(gerr) != errClass(werr) {
			t.Fatalf("%s op %d: Free(%d) = %v; reference %v", name, op, off, gerr, werr)
		}
	}
	for op := 0; ; op++ {
		b, ok := next()
		if !ok {
			break
		}
		switch int(b) % bestFitOps {
		case bopAlloc:
			if o, ok := next(); ok {
				alloc(op, int64(o)*int64(o)+1)
			}
		case bopAllocSize:
			if v, ok := val8(); ok {
				alloc(op, v)
			}
		case bopFree:
			if o, ok := next(); ok && len(hist) > 0 {
				free(op, hist[int(o)%len(hist)])
			}
		case bopFreeInterior:
			if o, ok := next(); ok && len(hist) > 0 {
				free(op, hist[int(o)%len(hist)]+1+int64(o>>4))
			}
		case bopFreeOffset:
			if v, ok := val8(); ok {
				free(op, v)
			}
		case bopChurn:
			o, ok := next()
			if !ok {
				break
			}
			for k := 0; k <= int(o%8); k++ {
				alloc(op, 64)
			}
			live := make([]int64, 0, len(ref.live))
			for off := range ref.live {
				live = append(live, off)
			}
			sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
			for k := int(o>>3) % 2; k < len(live); k += 2 {
				free(op, live[k])
			}
		}
		if a.Used() != ref.Used() || a.FreeBlocks() != ref.FreeBlocks() {
			t.Fatalf("%s op %d: Used %d, FreeBlocks %d; reference %d, %d",
				name, op, a.Used(), a.FreeBlocks(), ref.Used(), ref.FreeBlocks())
		}
		// Every live allocation holds exactly one index cell, of its size.
		cells := 0
		for _, e := range a.index {
			if e.size == 0 {
				continue
			}
			cells++
			if ref.live[e.off] != e.size {
				t.Fatalf("%s op %d: index holds %d bytes at %d, reference %d", name, op, e.size, e.off, ref.live[e.off])
			}
		}
		if cells != len(ref.live) || a.live != cells {
			t.Fatalf("%s op %d: %d index cells, live count %d, for %d live allocations", name, op, cells, a.live, len(ref.live))
		}
	}
	// Freeing everything left must agree too, and restore one free block.
	for _, off := range hist {
		free(-1, off)
	}
	if a.Used() != 0 || a.FreeBlocks() != ref.FreeBlocks() {
		t.Fatalf("%s: after freeing all: Used %d, FreeBlocks %d; reference %d, %d",
			name, a.Used(), a.FreeBlocks(), ref.Used(), ref.FreeBlocks())
	}
}

// bestFitConfigs are the regions every program runs on: lakeShm's 64-byte
// alignment, a byte-aligned region of odd size and first fit.
var bestFitConfigs = []struct {
	total, align int64
	s            placement
}{
	{1 << 16, 64, bestFit},
	{1000, 1, bestFit},
	{1<<12 + 32, 64, firstFit},
}

// FuzzBestFitDifferential runs one op program against the offset-indexed
// allocator and the map-indexed reference on each of bestFitConfigs: every
// offset, error class, Used and FreeBlocks must agree at every step. The
// committed corpus holds huge, zero and negative sizes (MaxInt64 and sizes
// within the alignment of it, which once wrapped), frees of live, interior,
// already-freed and never-allocated offsets, and churn that grows the index
// past its starting size and frees across its probe chains.
func FuzzBestFitDifferential(f *testing.F) {
	f.Add([]byte{bopAlloc, 7, bopAlloc, 3, bopFree, 0, bopFree, 0, bopFreeInterior, 1})
	f.Add(append([]byte{bopAllocSize}, binary.LittleEndian.AppendUint64(nil, math.MaxInt64)...))
	f.Add([]byte{bopChurn, 0xff, bopChurn, 0x07, bopChurn, 0x0f, bopFree, 5, bopAlloc, 200})
	f.Fuzz(func(t *testing.T, prog []byte) {
		for _, c := range bestFitConfigs {
			runBestFitProgram(t, c.total, c.align, c.s, prog)
		}
	})
}

// TestBestFitDifferentialSeeded runs long seeded programs through the same
// differential, so plain `go test` covers index growth and deep churn beyond
// the corpus: phases of 2000 ops alternate between mostly small allocations,
// which grow the live set past the index's starting size, and mostly frees.
func TestBestFitDifferentialSeeded(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 0, 40000)
		for n := 0; len(prog) < cap(prog)-9; n++ {
			if n/2000%2 == 0 && rng.Intn(8) != 0 {
				prog = append(prog, bopAlloc, byte(rng.Intn(16)))
				continue
			}
			switch op := byte(1 + rng.Intn(bestFitOps-2)); op {
			case bopAllocSize, bopFreeOffset:
				v := rng.Int63n(1 << 17)
				if rng.Intn(4) == 0 {
					v = math.MaxInt64 - rng.Int63n(128)
				}
				if rng.Intn(8) == 0 {
					v = -v
				}
				prog = binary.LittleEndian.AppendUint64(append(prog, op), uint64(v))
			default:
				prog = append(prog, op, byte(rng.Intn(256)))
			}
		}
		for _, c := range bestFitConfigs {
			runBestFitProgram(t, c.total, c.align, c.s, prog)
		}
	}
}

// BenchmarkBestFitSlot is one fleet request's lakeShm work: allocate a slot
// and free it, with 63 others live, for the reference and the live index.
func BenchmarkBestFitSlot(b *testing.B) {
	ref, _ := newRefAllocator(DefaultRegionSize, allocAlign, bestFit)
	live, _ := newAllocator(DefaultRegionSize, allocAlign, bestFit)
	b.Run("ref", func(b *testing.B) { benchSlot(b, ref) })
	b.Run("index", func(b *testing.B) { benchSlot(b, live) })
}

func benchSlot[A interface {
	Alloc(int64) (int64, error)
	Free(int64) error
}](b *testing.B, a A) {
	var ring [64]int64
	for i := range ring {
		ring[i], _ = a.Alloc(128)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(ring)
		if err := a.Free(ring[k]); err != nil {
			b.Fatal(err)
		}
		off, err := a.Alloc(128)
		if err != nil {
			b.Fatal(err)
		}
		ring[k] = off
	}
}
