// Package shm implements lakeShm, LAKE's bulk-data kernel<->user shared
// memory channel (§4: "lakeShm works by requesting and mapping a large
// contiguous memory region from the Linux kernel. When lakeD is started, the
// same region is mapped to its process").
//
// The region plays the role of the CMA-backed DMA region (the artifact boots
// with cma=128M). It is one anonymous private mapping of the whole size,
// made read/write: the address space is reserved up front and the kernel
// commits a page only when it is first touched, so a region that stages a
// few MiB costs a few MiB of memory, and the Go collector, which never sees
// the mapping, paces on the real live heap. Under the race detector, and off
// unix, the region is an ordinary heap slice instead: the race detector
// checks heap bytes only, and a mapped region would hide every race on ring
// payloads and staged rows.
//
// A region is unmapped by a finalizer once nothing references its *Region,
// never explicitly: a raw view read after an unmap is a SIGSEGV, not an
// error. Whoever keeps a view beyond one call therefore keeps the Buffer
// (which references its Region) rather than the bytes alone.
//
// Buffers handed out by Alloc are sub-slices of the region, so kernel-domain
// code and the user-domain daemon literally address the same memory — the
// zero-copy property §4.1 relies on. Placement uses the best-fit allocator
// (bestfit.go), as in the prototype.
package shm

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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
	alloc *allocator
}

// Buffer is one allocation inside the region, passed by value (the zero
// Buffer belongs to no region). It is usable from both the kernel domain and
// the user domain; Offset is the stable identifier that crosses the boundary.
type Buffer struct {
	region *Region
	off    int64
	size   int64
}

var errForeignBuffer = errors.New("shm: buffer does not belong to this region")

// live counts the regions mapped and not yet released; tests read it.
var live atomic.Int64

// NewRegion reserves a shared region of size bytes. Its pages are committed
// as they are touched, and released when the Region becomes unreachable.
func NewRegion(size int64) (*Region, error) {
	a, err := newAllocator(size, allocAlign, bestFit)
	if err != nil {
		return nil, fmt.Errorf("shm: %w", err)
	}
	if int64(int(size)) != size {
		return nil, fmt.Errorf("shm: region of %d bytes does not fit the address space", size)
	}
	mem, err := mapRegion(int(size))
	if err != nil {
		return nil, fmt.Errorf("shm: map %d bytes: %w", size, err)
	}
	r := &Region{mem: mem, alloc: a}
	live.Add(1)
	runtime.SetFinalizer(r, (*Region).release)
	return r, nil
}

// release unmaps the region. It runs as r's finalizer, when no Region
// pointer — and so no Buffer — is left to read the memory through.
func (r *Region) release() {
	unmapRegion(r.mem)
	live.Add(-1)
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

// Free releases buffers back to the region under one hold of its lock. A
// buffer that fails (not this region's, or not allocated) is skipped and
// the first such error returned; the rest are still freed.
func (r *Region) Free(bufs ...Buffer) (first error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, b := range bufs {
		err := errForeignBuffer
		if b.region == r {
			err = r.alloc.Free(b.off)
		}
		first = cmp.Or(first, err)
	}
	return first
}

// At resolves an offset/length pair received over the command channel into
// the user-domain view of the same bytes. This is lakeD's side of the
// zero-copy handoff. Both numbers come off the wire, so the bound is taken
// without forming off+size, which can wrap. The view is valid while the
// caller keeps r reachable.
func (r *Region) At(off, size int64) ([]byte, error) {
	if off < 0 || size < 0 || size > int64(len(r.mem))-off {
		return nil, fmt.Errorf("shm: range of %d bytes at %d outside region of %d bytes",
			size, off, len(r.mem))
	}
	return r.mem[off : off+size], nil
}

// Offset returns the buffer's offset within the region.
func (b Buffer) Offset() int64 { return b.off }

// Size returns the buffer's requested size.
func (b Buffer) Size() int64 { return b.size }

// Bytes returns the buffer's backing memory. Writes are visible to both
// domains immediately: there is exactly one copy of the data. The slice
// alone does not keep the region mapped; keep the Buffer while using it.
func (b Buffer) Bytes() []byte {
	return b.region.mem[b.off : b.off+b.size]
}
