// Package shm implements lakeShm, LAKE's bulk-data kernel<->user shared
// memory channel (§4: "lakeShm works by requesting and mapping a large
// contiguous memory region from the Linux kernel. When lakeD is started, the
// same region is mapped to its process").
//
// The region here is one Go byte slice playing the role of the CMA-backed
// DMA region (the artifact boots with cma=128M). Buffers handed out by Alloc
// are sub-slices of the region, so kernel-domain code and the user-domain
// daemon literally address the same memory — the zero-copy property §4.1
// relies on. Placement uses the best-fit allocator, as in the prototype.
package shm

import (
	"fmt"
	"sync"

	"lakego/internal/bestfit"
)

// DefaultRegionSize matches the artifact's cma=128M boot parameter.
const DefaultRegionSize = 128 << 20

// allocAlign keeps buffers cache-line aligned, like the prototype's
// allocator.
const allocAlign = 64

// Region is the shared contiguous memory area. All methods are safe for
// concurrent use.
type Region struct {
	mu    sync.Mutex
	mem   []byte
	alloc *bestfit.Allocator
}

// Buffer is one allocation inside the region, passed by value (the zero
// Buffer belongs to no region). It is usable from both the kernel domain and
// the user domain; Offset is the stable identifier that crosses the boundary.
type Buffer struct {
	region *Region
	off    int64
	size   int64
}

// NewRegion reserves a shared region of size bytes.
func NewRegion(size int64) (*Region, error) {
	a, err := bestfit.New(size, allocAlign)
	if err != nil {
		return nil, fmt.Errorf("shm: %w", err)
	}
	return &Region{mem: make([]byte, size), alloc: a}, nil
}

// Size returns the total region size.
func (r *Region) Size() int64 { return int64(len(r.mem)) }

// Used returns currently allocated bytes (including alignment padding).
func (r *Region) Used() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.alloc.Used()
}

// Alloc reserves a buffer of size bytes, the kernel-side malloc-like call
// the paper describes ("lakeShm ... provides a function similar to malloc").
func (r *Region) Alloc(size int64) (Buffer, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	off, err := r.alloc.Alloc(size)
	if err != nil {
		return Buffer{}, fmt.Errorf("shm: %w", err)
	}
	return Buffer{region: r, off: off, size: size}, nil
}

// Free releases the buffer back to the region.
func (r *Region) Free(b Buffer) error {
	if b.region != r {
		return fmt.Errorf("shm: buffer does not belong to this region")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.alloc.Free(b.off)
}

// At resolves an offset/length pair received over the command channel into
// the user-domain view of the same bytes. This is lakeD's side of the
// zero-copy handoff.
func (r *Region) At(off, size int64) ([]byte, error) {
	if off < 0 || size < 0 || off+size > int64(len(r.mem)) {
		return nil, fmt.Errorf("shm: range [%d,%d) outside region of %d bytes",
			off, off+size, len(r.mem))
	}
	return r.mem[off : off+size], nil
}

// Offset returns the buffer's offset within the region.
func (b Buffer) Offset() int64 { return b.off }

// Size returns the buffer's requested size.
func (b Buffer) Size() int64 { return b.size }

// Bytes returns the buffer's backing memory. Writes are visible to both
// domains immediately: there is exactly one copy of the data.
func (b Buffer) Bytes() []byte {
	return b.region.mem[b.off : b.off+b.size]
}
