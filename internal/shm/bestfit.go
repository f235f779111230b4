package shm

import (
	"errors"
	"fmt"
	"sort"
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

// allocator hands out non-overlapping [offset, offset+size) ranges inside a
// region of fixed total size. It is not safe for concurrent use; Region
// serializes access.
type allocator struct {
	total    int64
	align    int64
	strategy placement
	free     []block         // sorted by offset, no two adjacent
	live     map[int64]int64 // offset -> size
	used     int64           // sum of live sizes
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
	return &allocator{
		total:    total,
		align:    align,
		strategy: s,
		free:     []block{{off: 0, size: total}},
		live:     make(map[int64]int64),
	}, nil
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
func (a *allocator) Free(off int64) error {
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
