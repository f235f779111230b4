package boundary

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoorbellReadyShortCircuits(t *testing.T) {
	b := newDoorbell()
	calls := 0
	b.Wait(func() bool { calls++; return true })
	if calls != 1 {
		t.Fatalf("ready() called %d times, want 1", calls)
	}
	if rings, wakes, _ := b.Stats(); rings != 0 || wakes != 0 {
		t.Fatalf("short-circuit Wait touched the bell: rings=%d wakes=%d", rings, wakes)
	}
}

func TestDoorbellRingWakesParkedWaiter(t *testing.T) {
	b := newDoorbell()
	var work atomic.Bool
	woke := make(chan struct{})
	go func() {
		b.Wait(work.Load)
		close(woke)
	}()
	// Let the waiter park, then publish work and ring.
	time.Sleep(10 * time.Millisecond)
	work.Store(true)
	b.Ring()
	select {
	case <-woke:
	case <-time.After(5 * time.Second):
		t.Fatal("parked waiter never woke after Ring")
	}
	if _, wakes, _ := b.Stats(); wakes != 1 {
		t.Fatalf("wakes = %d, want 1", wakes)
	}
}

func TestDoorbellNoLostWakeup(t *testing.T) {
	// Hammer the park/ring race: the waiter repeatedly parks on a predicate
	// a ringer flips concurrently. A lost wakeup hangs the Wait; the test
	// passes iff every round completes.
	b := newDoorbell()
	var work atomic.Bool
	const rounds = 5000
	done := make(chan struct{})
	go func() {
		for i := 0; i < rounds; i++ {
			b.Wait(work.Load)
			work.Store(false)
		}
		close(done)
	}()
	go func() {
		for i := 0; i < rounds; i++ {
			work.Store(true)
			b.Ring()
			for work.Load() {
				runtime.Gosched()
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("lost wakeup: waiter wedged mid-round")
	}
}

func TestDoorbellRingWithoutWaiterIsCheap(t *testing.T) {
	b := newDoorbell()
	for i := 0; i < 100; i++ {
		b.Ring()
	}
	rings, wakes, coalesced := b.Stats()
	if rings != 100 || wakes != 0 || coalesced != 0 {
		t.Fatalf("stats = (%d, %d, %d), want (100, 0, 0)", rings, wakes, coalesced)
	}
	// The un-posted rings must not leave a stale token that satisfies a
	// later Wait without work.
	var work atomic.Bool
	woke := make(chan struct{})
	go func() {
		b.Wait(work.Load)
		close(woke)
	}()
	select {
	case <-woke:
		t.Fatal("Wait returned without work: a waiterless Ring leaked a wake token")
	case <-time.After(50 * time.Millisecond):
	}
	work.Store(true)
	b.Ring()
	<-woke
}

func TestDoorbellBurstCoalesces(t *testing.T) {
	// A burst of rings against one parked waiter delivers one wake; the rest
	// are fast-path no-ops or coalesced. This is the transport's doorbell
	// batching: a flush of N frames pays one wakeup.
	b := newDoorbell()
	var work atomic.Bool
	woke := make(chan struct{})
	go func() {
		b.Wait(work.Load)
		close(woke)
	}()
	time.Sleep(10 * time.Millisecond)
	work.Store(true)
	const burst = 64
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); b.Ring() }()
	}
	wg.Wait()
	<-woke
	rings, wakes, _ := b.Stats()
	if rings != burst {
		t.Fatalf("rings = %d, want %d", rings, burst)
	}
	if wakes != 1 {
		t.Fatalf("wakes = %d, want 1: burst did not coalesce", wakes)
	}
}

func TestDoorbellAllocFree(t *testing.T) {
	b := newDoorbell()
	if n := testing.AllocsPerRun(1000, b.Ring); n != 0 {
		t.Fatalf("Ring allocates %v bytes/op, want 0", n)
	}
	var work atomic.Bool
	work.Store(true)
	if n := testing.AllocsPerRun(1000, func() { b.Wait(work.Load) }); n != 0 {
		t.Fatalf("ready Wait allocates %v/op, want 0", n)
	}
}

// BenchmarkPerfDoorbell measures the no-waiter Ring fast path — the cost a
// producer pays per send when the consumer is already running.
func BenchmarkPerfDoorbell(b *testing.B) {
	bell := newDoorbell()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bell.Ring()
	}
}
