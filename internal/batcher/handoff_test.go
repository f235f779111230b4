package batcher_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"lakego/internal/batcher"
)

// TestLeaderHandoffFullFlushRace exercises the close(m.fullSig) wake path:
// a deadline leader lingers with its request queued while concurrent
// submitters fill the batch to MaxBatch, so a full flush on a submitter's
// goroutine takes the leader's request out from under it. The leader must
// wake, find its request taken, and deliver without re-flushing. Run with
// -race; the assertions catch lost flushes and double-flushed requests
// (delivering a request twice would close(p.done) twice and panic).
func TestLeaderHandoffFullFlushRace(t *testing.T) {
	const (
		maxBatch = 8
		rounds   = 30
	)
	rt := newRT(t)
	cfg := batcher.DefaultConfig()
	cfg.MaxBatch = maxBatch
	// A long linger guarantees the leader is still lingering when the
	// fillers arrive, so every round exercises the full-flush wake; the
	// wake path means the leader never sleeps the whole window.
	cfg.Linger = 100 * time.Millisecond
	cfg.ClientDepth = 1
	b := newBatcher(t, rt, cfg)

	for round := 0; round < rounds; round++ {
		leader := b.Client(fmt.Sprintf("leader-%d", round))
		lp, err := leader.Submit("testmodel", [][]float32{item(round)})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := lp.Wait()
			if err != nil {
				t.Errorf("round %d: leader wait: %v", round, err)
				return
			}
			if want := forward(item(round)); out[0][0] != want[0] || out[0][1] != want[1] {
				t.Errorf("round %d: leader got %v, want %v", round, out[0], want)
			}
		}()
		// Give the leader a moment to become the lingering deadline-leader.
		time.Sleep(2 * time.Millisecond)

		// Fillers complete the batch; the last Submit triggers the full
		// flush (on that submitter's goroutine) and must wake the leader.
		for f := 0; f < maxBatch-1; f++ {
			wg.Add(1)
			go func(f int) {
				defer wg.Done()
				c := b.Client(fmt.Sprintf("filler-%d-%d", round, f))
				out, err := c.Infer("testmodel", [][]float32{item(round*100 + f)})
				if err != nil {
					t.Errorf("round %d filler %d: %v", round, f, err)
					return
				}
				if want := forward(item(round*100 + f)); out[0][0] != want[0] || out[0][1] != want[1] {
					t.Errorf("round %d filler %d: got %v, want %v", round, f, out[0], want)
				}
			}(f)
		}
		wg.Wait()
	}

	st := b.Stats()
	if st.Requests != rounds*maxBatch {
		t.Fatalf("requests = %d, want %d", st.Requests, rounds*maxBatch)
	}
	if st.Items != rounds*maxBatch {
		t.Fatalf("items = %d, want %d", st.Items, rounds*maxBatch)
	}
	// No flush lost, none duplicated: every accepted item was flushed
	// exactly once, and every flush is accounted to exactly one trigger.
	if st.Flushes != st.FullFlushes+st.DeadlineFlushes {
		t.Fatalf("flushes %d != full %d + deadline %d", st.Flushes, st.FullFlushes, st.DeadlineFlushes)
	}
	if st.FullFlushes == 0 {
		t.Fatal("no full flush fired; the race was never exercised")
	}
	if st.Rejected != 0 {
		t.Fatalf("rejected = %d, want 0", st.Rejected)
	}
}

// TestLeaderHandoffDeadlineFlushFromSubmit exercises the other claiming take
// in Submit: a leader lingers (Linger = 10 s) with a second waiter parked
// behind it, the virtual clock moves past the oldest deadline, and a third
// client's Submit — far short of MaxBatch — honors that deadline itself,
// claiming both waiters' requests. Completion is per batch, so neither
// waiter has a channel of its own to wake on: the take must wake the leader,
// and the leader stepping down must release the waiter behind it. Both
// return long before the linger would have expired, and nobody flushes a
// second time. (Were the third Submit to win the race against the two Waits,
// they would find their requests taken; the assertions hold either way.)
func TestLeaderHandoffDeadlineFlushFromSubmit(t *testing.T) {
	rt := newRT(t)
	cfg := batcher.DefaultConfig()
	cfg.Linger = 10 * time.Second
	cfg.ClientDepth = 1
	b := newBatcher(t, rt, cfg)

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < 2; w++ {
		p, err := b.Client(fmt.Sprintf("waiter-%d", w)).Submit("testmodel", [][]float32{item(w)})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out, err := p.Wait()
			if err != nil {
				t.Errorf("waiter %d: %v", w, err)
				return
			}
			if want := forward(item(w)); out[0][0] != want[0] || out[0][1] != want[1] {
				t.Errorf("waiter %d got %v, want %v", w, out[0], want)
			}
			if d := time.Since(start); d > 2*time.Second {
				t.Errorf("waiter %d returned after %v: it slept out a linger its request no longer needed", w, d)
			}
		}(w)
		// Let this waiter park (the first as the lingering leader, the second
		// behind it) before the next step.
		time.Sleep(20 * time.Millisecond)
	}

	rt.Clock().Advance(2 * cfg.MaxWait)
	out, err := b.Client("late").Infer("testmodel", [][]float32{item(2)})
	if err != nil {
		t.Fatal(err)
	}
	if want := forward(item(2)); out[0][0] != want[0] || out[0][1] != want[1] {
		t.Fatalf("late submitter got %v, want %v", out[0], want)
	}
	wg.Wait()

	st := b.Stats()
	if st.Requests != 3 || st.Items != 3 {
		t.Fatalf("requests/items = %d/%d, want 3/3", st.Requests, st.Items)
	}
	if st.Flushes != 1 || st.DeadlineFlushes != 1 || st.FullFlushes != 0 {
		t.Fatalf("flushes = %+v, want exactly one deadline flush carrying all three requests", st)
	}
}
