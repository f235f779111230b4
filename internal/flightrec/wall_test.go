package flightrec

import (
	"testing"
	"time"

	"lakego/internal/vtime"
)

// TestEmitCoarseWallStamps: every recorded event must carry a nonzero wall
// stamp, and the cached clock must actually advance across refresh periods
// (the stamp is coarse, not frozen at boot).
func TestEmitCoarseWallStamps(t *testing.T) {
	r := New(vtime.New(), 1024)
	r.SetEnabled(true)
	before := time.Now().UnixNano()
	for i := 0; i < 3*wallRefreshEvery; i++ {
		r.Emit(DomainGPU, EvLaunch, 1, uint64(i), 0, 0, 0, 0)
		if i == wallRefreshEvery { // let the wall clock visibly move
			time.Sleep(2 * time.Millisecond)
		}
	}
	d := r.Snapshot("test")
	evs := d.Domains[DomainGPU].Events
	if len(evs) != 3*wallRefreshEvery {
		t.Fatalf("recorded %d events, want %d", len(evs), 3*wallRefreshEvery)
	}
	var minW, maxW int64
	for i, e := range evs {
		if e.Wall < before {
			t.Fatalf("event %d wall stamp %d predates the run (%d)", i, e.Wall, before)
		}
		if minW == 0 || e.Wall < minW {
			minW = e.Wall
		}
		if e.Wall > maxW {
			maxW = e.Wall
		}
	}
	if maxW == minW {
		t.Fatal("coarse wall clock never advanced across refresh periods")
	}
}

func TestLifecycleDomainNames(t *testing.T) {
	if DomainLifecycle.String() != "lifecycle" {
		t.Fatalf("DomainLifecycle = %q", DomainLifecycle.String())
	}
	for _, k := range []Kind{EvModelRegister, EvModelSwap, EvRetrainStep, EvShadowScore, EvDriftAlarm, EvFallback} {
		if k.String() == "unknown" || k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	// The domain must round-trip through the dump format.
	r := New(vtime.New(), 64)
	r.SetEnabled(true)
	r.Emit(DomainLifecycle, EvModelSwap, 7, 1, 0, 2, 1, 0)
	js, err := r.Snapshot("test").JSON()
	if err != nil {
		t.Fatal(err)
	}
	d, err := ReadDump(js)
	if err != nil {
		t.Fatal(err)
	}
	evs := d.Domains[DomainLifecycle].Events
	if len(evs) != 1 || evs[0].Kind != EvModelSwap || evs[0].Arg0 != 2 {
		t.Fatalf("lifecycle event did not survive the dump round trip: %+v", evs)
	}
}

// BenchmarkFlightrecEmit measures the per-event recording cost — the number
// that used to be ~65% time.Now() on the ring transport's profiles, before
// the coarse wall-clock cache.
func BenchmarkFlightrecEmit(b *testing.B) {
	r := New(vtime.New(), DefaultRingSize)
	r.SetEnabled(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Emit(DomainGPU, EvLaunch, 1, uint64(i), 0, 1, 2, 3)
	}
}
