package shm

import "sync"

// FreeList recycles the scratch a hot path stages through — decoded slabs,
// marshaled frames — so that path allocates nothing at steady state. Unlike
// a sync.Pool it keeps what is put back across GC cycles, and it needs no
// capacity: it only ever holds values that Get created, and Get creates one
// only when none is free, so it never holds more than were out at once. The
// zero value is an empty list; Get and Put are safe for concurrent use.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get returns a free value, or a new zero one when none is free.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	n := len(l.free)
	if n == 0 {
		l.mu.Unlock()
		return new(T)
	}
	v := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	l.mu.Unlock()
	return v
}

// Put returns v, which Get handed out, to the list.
func (l *FreeList[T]) Put(v *T) {
	l.mu.Lock()
	l.free = append(l.free, v)
	l.mu.Unlock()
}
