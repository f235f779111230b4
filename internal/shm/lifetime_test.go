package shm_test

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"lakego/internal/boundary"
	"lakego/internal/shm"
	"lakego/internal/vtime"
)

// collectUntil runs the collector until done reports true or a few seconds
// pass: finalizers run on their own goroutine, after the cycle that finds
// their object unreachable.
func collectUntil(done func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		runtime.GC()
		if done() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return done()
}

// regionTransport builds a ring transport on a region nothing else
// references once this returns.
func regionTransport(t *testing.T) *boundary.RingTransport {
	t.Helper()
	region, err := shm.NewRegion(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := boundary.NewRingTransport(vtime.New(), region, 4, 256)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// A region is released by reachability alone, so a transport whose slot
// arenas live in it must keep it mapped; once the transport is gone too,
// the region is released.
func TestRingTransportKeepsItsRegionMapped(t *testing.T) {
	tr := regionTransport(t)
	runtime.GC()
	runtime.GC()
	// Drain the releases of every other test's regions. Ours would go with
	// them if the transport held only its arenas' bytes.
	collectUntil(func() bool { return shm.LiveRegions() <= 1 })
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	if n := shm.LiveRegions(); n != 1 {
		t.Fatalf("%d live regions with the transport still reachable, want 1", n)
	}
	// Two laps of each ring, so every payload slot is written and read.
	for i := 0; i < 8; i++ {
		msg := bytes.Repeat([]byte{byte(i + 1)}, 200)
		if err := tr.SendToUser(msg); err != nil {
			t.Fatal(err)
		}
		if got, ok := tr.RecvInUser(); !ok || !bytes.Equal(got, msg) {
			t.Fatalf("command %d did not round-trip", i)
		}
		if err := tr.SendToKernel(msg); err != nil {
			t.Fatal(err)
		}
		if got, ok := tr.RecvInKernel(); !ok || !bytes.Equal(got, msg) {
			t.Fatalf("response %d did not round-trip", i)
		}
	}
	runtime.KeepAlive(tr)

	if !collectUntil(func() bool { return shm.LiveRegions() == 0 }) {
		t.Fatalf("%d regions still mapped with nothing referencing them", shm.LiveRegions())
	}
}
