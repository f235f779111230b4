package shm

import (
	"runtime"
	"sync"
	"testing"
)

// A put value comes back from the next Get, two collections later, with
// nothing allocated.
func TestFreeListKeepsValuesAcrossGC(t *testing.T) {
	var l FreeList[[]byte]
	v := l.Get()
	*v = make([]byte, 64)
	l.Put(v)
	got := testing.AllocsPerRun(20, func() {
		runtime.GC()
		runtime.GC()
		w := l.Get()
		if w != v || len(*w) != 64 {
			t.Fatalf("Get after GC = %p (len %d), want the put value %p", w, len(*w), v)
		}
		l.Put(w)
	})
	if got != 0 {
		t.Fatalf("Get/Put across GC cycles allocates %v objects/op, want 0", got)
	}
}

// Concurrent users never share a value, and the list never holds more than
// were out at once.
func TestFreeListConcurrent(t *testing.T) {
	var l FreeList[int]
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				v := l.Get()
				*v = id
				runtime.Gosched()
				if *v != id {
					t.Errorf("worker %d: value overwritten with %d while held", id, *v)
					return
				}
				l.Put(v)
			}
		}(w)
	}
	wg.Wait()
	if n := len(l.free); n == 0 || n > workers {
		t.Fatalf("list holds %d values after %d workers, want 1..%d", n, workers, workers)
	}
}
