//go:build unix && !race

package shm

import "syscall"

// heapBacked reports whether regions live on the Go heap. Here they do not:
// a region is an anonymous private mapping, and the kernel commits its
// pages only as they are first touched.
const heapBacked = false

func mapRegion(size int) ([]byte, error) {
	return syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

func unmapRegion(mem []byte) { _ = syscall.Munmap(mem) } // the mapping is ours and whole: Munmap cannot fail
