package flightrec

import (
	"sync"
	"testing"
	"time"
)

// stormEvent derives every word of an event from one value, so an event
// assembled from two different writes can never pass wholeEvent.
func stormEvent(v uint64) Event {
	return Event{
		VTime: time.Duration(v), TraceID: v, Seq: ^v,
		Domain: DomainKernel, Kind: Kind(v % uint64(numKinds)),
		Shard: uint16(v), Device: uint16(v >> 16),
		Arg0: v * 3, Arg1: v << 7, Arg2: v ^ 0x5555,
	}
}

// wholeEvent reports whether e is exactly one stormEvent; the wall word is
// the recorder's coarse clock, not derived.
func wholeEvent(e Event) bool {
	want := stormEvent(e.TraceID)
	want.Wall = e.Wall
	return e == want
}

// TestRingStormNeverMixesEvents is the ring's integrity gate: four writers
// lap a 64-slot ring constantly while Snapshot and TailInto read it, and no
// reader may ever see an event mixed from two writes. Writes and reads
// share one lock, so this is a deterministic property rather than a
// probability; under -race the test also proves every slot access is
// synchronized. The CI chaos job runs it at -race -count=20.
func TestRingStormNeverMixesEvents(t *testing.T) {
	const writers, perWriter = 4, 20000
	r := newTailRecorder(t, 64)
	rg := r.rings[DomainKernel]

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				e := stormEvent(uint64(w*perWriter + i))
				rg.put(uint64(e.VTime), e.TraceID, e.Seq, packMeta(e.Domain, e.Kind, e.Shard, e.Device),
					e.Arg0, e.Arg1, e.Arg2, &r.wallCoarse)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	close(start)

	var cur TailCursor
	var returned, skipped, seen uint64
	buf := make([]Event, 48)
	check := func(evs []Event, how string) {
		for _, e := range evs {
			if !wholeEvent(e) {
				t.Fatalf("%s returned a mixed event: %+v", how, e)
			}
		}
	}
	for storming := true; storming; {
		select {
		case <-done:
			storming = false
		default:
		}
		kd := r.Snapshot("storm").Domains[DomainKernel]
		check(kd.Events, "snapshot")
		written := kd.Dropped + uint64(len(kd.Events))
		if written < seen {
			t.Fatalf("snapshot accounts for %d events after an earlier one accounted for %d", written, seen)
		}
		seen = written
		n, next, sk := r.TailInto(cur, buf)
		check(buf[:n], "tail")
		returned += uint64(n)
		skipped += sk
		cur = next
	}
	for {
		n, next, sk := r.TailInto(cur, buf)
		check(buf[:n], "tail")
		returned += uint64(n)
		skipped += sk
		cur = next
		if n == 0 && sk == 0 {
			break
		}
	}
	if total := returned + skipped; total != writers*perWriter {
		t.Fatalf("returned %d + skipped %d = %d, want exactly %d written", returned, skipped, total, writers*perWriter)
	}
}
