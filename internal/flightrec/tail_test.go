package flightrec

import (
	"sync"
	"testing"
	"time"

	"lakego/internal/vtime"
)

func newTailRecorder(t *testing.T, ringSize int) *Recorder {
	t.Helper()
	r := New(vtime.New(), ringSize)
	r.SetEnabled(true)
	return r
}

func emitN(r *Recorder, d Domain, start, n uint64) {
	for i := uint64(0); i < n; i++ {
		r.Emit(d, EvCallStart, start+i, start+i, 0, 7, 0, 0)
	}
}

func TestTailBasic(t *testing.T) {
	r := newTailRecorder(t, 1024)
	emitN(r, DomainKernel, 0, 10)
	emitN(r, DomainGPU, 100, 3)

	events, cur, skipped := r.Tail(TailCursor{}, 0)
	if skipped != 0 {
		t.Fatalf("skipped = %d, want 0", skipped)
	}
	if len(events) != 13 {
		t.Fatalf("len(events) = %d, want 13", len(events))
	}
	for i := 0; i < 10; i++ {
		if events[i].Domain != DomainKernel || events[i].TraceID != uint64(i) {
			t.Fatalf("event %d = %+v, want kernel trace %d", i, events[i], i)
		}
	}
	for i := 0; i < 3; i++ {
		if events[10+i].Domain != DomainGPU || events[10+i].TraceID != uint64(100+i) {
			t.Fatalf("event %d = %+v, want gpu trace %d", 10+i, events[10+i], 100+i)
		}
	}
	if got := cur.Position(DomainKernel); got != 10 {
		t.Fatalf("kernel position = %d, want 10", got)
	}

	// Nothing new: an immediate re-tail is empty and the cursor is stable.
	events, cur2, skipped := r.Tail(cur, 0)
	if len(events) != 0 || skipped != 0 || cur2 != cur {
		t.Fatalf("re-tail: %d events, %d skipped, cursor moved %v", len(events), skipped, cur2 != cur)
	}

	// New events resume exactly where the cursor left off.
	emitN(r, DomainKernel, 10, 5)
	events, _, skipped = r.Tail(cur2, 0)
	if len(events) != 5 || skipped != 0 {
		t.Fatalf("resume tail: %d events, %d skipped, want 5, 0", len(events), skipped)
	}
	if events[0].TraceID != 10 || events[4].TraceID != 14 {
		t.Fatalf("resume tail traces %d..%d, want 10..14", events[0].TraceID, events[4].TraceID)
	}
}

func TestTailNilAndEmpty(t *testing.T) {
	var r *Recorder
	events, cur, skipped := r.Tail(TailCursor{}, 0)
	if events != nil || skipped != 0 || cur != (TailCursor{}) {
		t.Fatalf("nil recorder tail: %v %v %d", events, cur, skipped)
	}
	r2 := newTailRecorder(t, 64)
	n, _, skipped := r2.TailInto(TailCursor{}, nil)
	if n != 0 || skipped != 0 {
		t.Fatalf("empty buf tail: n=%d skipped=%d", n, skipped)
	}
}

func TestTailCursorRoundTrip(t *testing.T) {
	var c TailCursor
	c.pos[DomainKernel] = 0xdeadbeef
	c.pos[DomainLifecycle] = 42
	got, err := ParseTailCursor(c.String())
	if err != nil {
		t.Fatalf("ParseTailCursor(%q): %v", c.String(), err)
	}
	if got != c {
		t.Fatalf("round trip: got %+v want %+v", got, c)
	}
	if z, err := ParseTailCursor(""); err != nil || z != (TailCursor{}) {
		t.Fatalf("empty cursor: %+v, %v", z, err)
	}
	for _, bad := range []string{"v0.1", "v2.zz", "v2.1.2", "garbage", "v2", "v1.0.0.0.0.0.0.0.0-0.0.0.0.0.0.0.0"} {
		if _, err := ParseTailCursor(bad); err == nil {
			t.Fatalf("ParseTailCursor(%q) accepted malformed cursor", bad)
		}
	}
}

func TestTailOverrunExact(t *testing.T) {
	r := newTailRecorder(t, 64) // minimum ring capacity
	capacity := r.rings[DomainKernel].capacity()

	total := 3 * capacity
	emitN(r, DomainKernel, 0, total)
	events, cur, skipped := r.Tail(TailCursor{}, 0)
	if want := total - capacity; skipped != want {
		t.Fatalf("skipped = %d, want %d", skipped, want)
	}
	if uint64(len(events)) != capacity {
		t.Fatalf("len(events) = %d, want %d", len(events), capacity)
	}
	// The survivors are exactly the newest capacity events, in order.
	if events[0].TraceID != total-capacity || events[len(events)-1].TraceID != total-1 {
		t.Fatalf("survivor traces %d..%d, want %d..%d",
			events[0].TraceID, events[len(events)-1].TraceID, total-capacity, total-1)
	}

	// Overrun again from the advanced cursor: the gap is still exact.
	emitN(r, DomainKernel, total, total)
	events, _, skipped = r.Tail(cur, 0)
	if want := total - capacity; skipped != want {
		t.Fatalf("second skipped = %d, want %d", skipped, want)
	}
	if uint64(len(events)) != capacity {
		t.Fatalf("second len(events) = %d, want %d", len(events), capacity)
	}
}

func TestTailMaxTruncation(t *testing.T) {
	r := newTailRecorder(t, 256)
	emitN(r, DomainKernel, 0, 100)
	var cur TailCursor
	var got int
	for i := 0; i < 20; i++ {
		events, next, skipped := r.Tail(cur, 7)
		if skipped != 0 {
			t.Fatalf("skipped = %d during bounded drain", skipped)
		}
		got += len(events)
		cur = next
		if len(events) == 0 {
			break
		}
	}
	if got != 100 {
		t.Fatalf("bounded drain returned %d events, want 100", got)
	}
}

// TestTailRaceStorm is the race-and-overrun gate: a concurrent Emit storm
// with a deliberately slow, small-buffered tailer. Cursors must stay
// monotonic throughout, and once the writers quiesce the tailer's
// returned+skipped totals must account for every event emitted — nothing
// lost, nothing double-counted. Runs under -race in the CI chaos job.
func TestTailRaceStorm(t *testing.T) {
	const (
		writers   = 4
		perWriter = 20000
	)
	r := newTailRecorder(t, 64) // tiny ring so the storm laps the tailer constantly

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				tid := uint64(w*perWriter + i)
				r.Emit(DomainKernel, EvCallStart, tid, tid, 0, 1, 2, 3)
				if i%3 == 0 {
					r.Emit(DomainGPU, EvExec, tid, tid, 1, 1000, 50, 0)
				}
			}
		}(w)
	}

	var (
		cur      TailCursor
		returned uint64
		skipped  uint64
	)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	close(start)

	buf := make([]Event, 48) // smaller than the ring: the tailer can never keep up
	storming := true
	for storming {
		select {
		case <-done:
			storming = false
		default:
		}
		n, next, sk := r.TailInto(cur, buf)
		for d := Domain(0); d < numDomains; d++ {
			if next.Position(d) < cur.Position(d) {
				t.Fatalf("cursor for %v moved backward: %d -> %d", d, cur.Position(d), next.Position(d))
			}
		}
		returned += uint64(n)
		skipped += sk
		cur = next
		time.Sleep(50 * time.Microsecond) // deliberately slow reader
	}

	// Writers have quiesced; drain to the frontier.
	for {
		n, next, sk := r.TailInto(cur, buf)
		returned += uint64(n)
		skipped += sk
		cur = next
		if n == 0 && sk == 0 {
			break
		}
	}

	kernelEmitted := uint64(writers * perWriter)
	gpuEmitted := uint64(writers) * uint64((perWriter+2)/3)
	if total := returned + skipped; total != kernelEmitted+gpuEmitted {
		t.Fatalf("returned %d + skipped %d = %d, want exactly %d emitted",
			returned, skipped, returned+skipped, kernelEmitted+gpuEmitted)
	}
	if got := cur.Position(DomainKernel); got != kernelEmitted {
		t.Fatalf("kernel cursor = %d, want %d", got, kernelEmitted)
	}
	if got := cur.Position(DomainGPU); got != gpuEmitted {
		t.Fatalf("gpu cursor = %d, want %d", got, gpuEmitted)
	}
}
