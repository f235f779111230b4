//go:build !unix || race

package shm

// heapBacked reports whether regions live on the Go heap. Here they do: the
// race detector checks heap bytes but not mapped ones, and off unix there
// is no syscall.Mmap to map them with.
const heapBacked = true

func mapRegion(size int) ([]byte, error) { return make([]byte, size), nil }

func unmapRegion([]byte) {}
