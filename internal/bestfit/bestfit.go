// Package bestfit implements the best-fit memory allocator that backs
// lakeShm's contiguous DMA region (LAKE §6: "A best-fit based memory
// allocator algorithm is used").
//
// The allocator manages offsets within a fixed-size region; it never touches
// the memory itself, so the same allocator serves both the kernel-domain and
// user-domain views of the shared mapping. Free blocks are kept in address
// order and coalesced eagerly on free, and allocation picks the smallest free
// block that fits (ties broken by lowest address), which is what keeps
// long-running mixed alloc/free workloads from fragmenting the region.
package bestfit

import (
	"errors"
	"fmt"
	"sort"
)

// ErrNoSpace is returned when no free block can satisfy an allocation.
var ErrNoSpace = errors.New("bestfit: out of space")

// ErrBadFree is returned when Free is called with an offset that does not
// correspond to a live allocation.
var ErrBadFree = errors.New("bestfit: free of unallocated offset")

type block struct {
	off  int64
	size int64
}

// Strategy selects how Alloc picks among free blocks.
type Strategy int

// Placement strategies. BestFit is what the LAKE prototype uses; FirstFit
// exists for the ablation benchmark comparing long-run fragmentation.
const (
	BestFit Strategy = iota
	FirstFit
)

// Allocator hands out non-overlapping [offset, offset+size) ranges inside a
// region of fixed total size. It is not safe for concurrent use; callers
// (the shm package) serialize access.
type Allocator struct {
	total    int64
	align    int64
	strategy Strategy
	free     []block         // sorted by offset, no two adjacent
	live     map[int64]int64 // offset -> size
	used     int64           // sum of live sizes
}

// New creates a best-fit allocator over a region of total bytes, rounding
// every allocation up to a multiple of align. align must be a power of two.
func New(total, align int64) (*Allocator, error) {
	return NewWithStrategy(total, align, BestFit)
}

// NewWithStrategy creates an allocator with an explicit placement strategy.
func NewWithStrategy(total, align int64, s Strategy) (*Allocator, error) {
	if total <= 0 {
		return nil, fmt.Errorf("bestfit: total %d must be positive", total)
	}
	if align <= 0 || align&(align-1) != 0 {
		return nil, fmt.Errorf("bestfit: align %d must be a positive power of two", align)
	}
	if s != BestFit && s != FirstFit {
		return nil, fmt.Errorf("bestfit: unknown strategy %d", s)
	}
	return &Allocator{
		total:    total,
		align:    align,
		strategy: s,
		free:     []block{{off: 0, size: total}},
		live:     make(map[int64]int64),
	}, nil
}

// Total returns the size of the managed region.
func (a *Allocator) Total() int64 { return a.total }

// Used returns the number of bytes currently allocated (after alignment).
func (a *Allocator) Used() int64 { return a.used }

// Free-block count; exposed for fragmentation diagnostics and tests.
func (a *Allocator) FreeBlocks() int { return len(a.free) }

// Alloc reserves size bytes and returns the offset of the reservation.
func (a *Allocator) Alloc(size int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("bestfit: alloc size %d must be positive", size)
	}
	need := (size + a.align - 1) &^ (a.align - 1)
	best := -1
	for i, b := range a.free {
		if b.size < need {
			continue
		}
		if a.strategy == FirstFit {
			best = i
			break
		}
		if best == -1 || b.size < a.free[best].size {
			best = i
		}
	}
	if best == -1 {
		return 0, fmt.Errorf("%w: need %d bytes, %d free in %d blocks",
			ErrNoSpace, need, a.total-a.used, len(a.free))
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
func (a *Allocator) Free(off int64) error {
	size, ok := a.live[off]
	if !ok {
		return fmt.Errorf("%w: offset %d", ErrBadFree, off)
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
