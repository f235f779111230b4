package shm

import (
	"errors"
	"fmt"
)

// The best-fit memory allocator that backs the region (LAKE §6: "A best-fit
// based memory allocator algorithm is used").
//
// The allocator manages offsets within a fixed-size region; it never touches
// the memory itself, so the same allocator serves both the kernel-domain and
// user-domain views of the shared mapping. Free blocks are kept in address
// order and coalesced eagerly on free, and allocation picks the smallest free
// block that fits (ties broken by lowest address), which is what keeps
// long-running mixed alloc/free workloads from fragmenting the region.
//
// Live allocations are found by offset through an open-addressed index
// (Fibonacci hash of the offset, linear probing, deletion by backward shift,
// so no tombstones build up), kept at most half full. It grows only when the
// live count outgrows it and never shrinks, so a region that has once held
// its peak number of slots allocates and frees without touching the heap.

// errNoSpace is returned when no free block can satisfy an allocation.
var errNoSpace = errors.New("out of space")

// errBadFree is returned when Free is called with an offset that does not
// correspond to a live allocation.
var errBadFree = errors.New("free of unallocated offset")

type block struct {
	off  int64
	size int64
}

// placement selects how Alloc picks among free blocks.
type placement int

// Placement strategies. bestFit is what the LAKE prototype uses; firstFit
// exists for the ablation benchmark comparing long-run fragmentation.
const (
	bestFit placement = iota
	firstFit
)

// minIndexCells is the offset index's starting length: 32 live slots.
const minIndexCells = 64

// allocator hands out non-overlapping [offset, offset+size) ranges inside a
// region of fixed total size. It is not safe for concurrent use; Region
// serializes access.
type allocator struct {
	total    int64
	align    int64
	strategy placement
	free     []block // sorted by offset, no two adjacent
	// index holds each live allocation as a block (offset, rounded size);
	// a cell of size 0 is empty, since every live size is at least align.
	// Its length is a power of two, at least twice live, so a probe always
	// meets an empty cell. shift turns the 64-bit hash into a cell.
	index []block
	shift uint
	live  int   // live allocations
	used  int64 // sum of live sizes
}

// newAllocator creates an allocator over a region of total bytes with
// placement strategy s, rounding every allocation up to a multiple of
// align. align must be a power of two.
func newAllocator(total, align int64, s placement) (*allocator, error) {
	if total <= 0 {
		return nil, fmt.Errorf("total %d must be positive", total)
	}
	if align <= 0 || align&(align-1) != 0 {
		return nil, fmt.Errorf("align %d must be a positive power of two", align)
	}
	if s != bestFit && s != firstFit {
		return nil, fmt.Errorf("unknown strategy %d", s)
	}
	a := &allocator{
		total:    total,
		align:    align,
		strategy: s,
		free:     []block{{off: 0, size: total}},
	}
	a.resize(minIndexCells)
	return a, nil
}

// Total returns the size of the managed region.
func (a *allocator) Total() int64 { return a.total }

// Used returns the number of bytes currently allocated (after alignment).
func (a *allocator) Used() int64 { return a.used }

// Free-block count; exposed for fragmentation diagnostics and tests.
func (a *allocator) FreeBlocks() int { return len(a.free) }

// Alloc reserves size bytes and returns the offset of the reservation.
func (a *allocator) Alloc(size int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("alloc size %d must be positive", size)
	}
	// Nothing larger than the region's size rounded down to align can fit.
	// Such a size is refused here, before rounding, which would wrap for a
	// size within align-1 of MaxInt64.
	if size > a.total&^(a.align-1) {
		return 0, a.noSpace(size)
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
		return 0, a.noSpace(need)
	}
	b := a.free[best]
	off := b.off
	if b.size == need {
		a.free = append(a.free[:best], a.free[best+1:]...)
	} else {
		a.free[best] = block{off: b.off + need, size: b.size - need}
	}
	if 2*(a.live+1) > len(a.index) {
		a.resize(2 * len(a.index))
	}
	c, _ := a.find(off)
	a.index[c] = block{off: off, size: need}
	a.live++
	a.used += need
	return off, nil
}

// noSpace is Alloc's failure: no free block holds need bytes.
func (a *allocator) noSpace(need int64) error {
	return fmt.Errorf("%w: need %d bytes, %d free in %d blocks",
		errNoSpace, need, a.total-a.used, len(a.free))
}

// Free releases the allocation that starts at off, coalescing with adjacent
// free blocks.
func (a *allocator) Free(off int64) error {
	c, ok := a.find(off)
	if !ok {
		return fmt.Errorf("%w: offset %d", errBadFree, off)
	}
	nb := a.index[c]
	a.unindex(c)
	a.live--
	a.used -= nb.size

	// i is the first free block past off.
	i, j := 0, len(a.free)
	for i < j {
		h := int(uint(i+j) >> 1)
		if a.free[h].off > off {
			j = h
		} else {
			i = h + 1
		}
	}
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

// home is off's preferred index cell: the top bits of its Fibonacci hash.
func (a *allocator) home(off int64) int {
	return int((uint64(off) * 0x9E3779B97F4A7C15) >> a.shift)
}

// find returns the index cell holding off, or else the empty cell that
// ends off's probe chain, where an insert of off belongs.
func (a *allocator) find(off int64) (cell int, ok bool) {
	mask := len(a.index) - 1
	for c := a.home(off); ; c = (c + 1) & mask {
		e := a.index[c]
		if e.size == 0 {
			return c, false
		}
		if e.off == off {
			return c, true
		}
	}
}

// unindex empties cell and closes the gap by shifting back every later
// entry of the probe run that may not be left behind it, so each live
// offset stays reachable from its home without a tombstone.
func (a *allocator) unindex(cell int) {
	mask := len(a.index) - 1
	gap := cell
	for c := (gap + 1) & mask; a.index[c].size != 0; c = (c + 1) & mask {
		// The entry at c may fill the gap unless its home lies cyclically
		// in (gap, c]: it is at least as far from its home as from the gap.
		if (c-a.home(a.index[c].off))&mask >= (c-gap)&mask {
			a.index[gap] = a.index[c]
			gap = c
		}
	}
	a.index[gap] = block{}
}

// resize rebuilds the index with cells cells, a power of two, re-inserting
// every live allocation.
func (a *allocator) resize(cells int) {
	old := a.index
	a.index = make([]block, cells)
	a.shift = 64
	for n := cells; n > 1; n >>= 1 {
		a.shift--
	}
	for _, e := range old {
		if e.size != 0 {
			c, _ := a.find(e.off)
			a.index[c] = e
		}
	}
}
