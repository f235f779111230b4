package batcher_test

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
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
// (delivering a request twice panics).
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
// claiming both waiters' requests. Neither waiter has a channel of its own
// to wake on: the take must wake the leader, and the leader stepping down
// must release the waiter behind it. Both return long before the linger
// would have expired, and nobody flushes a second time. (Were the third
// Submit to win the race against the two Waits, they would find their
// requests taken; the assertions hold either way.)
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

// TestSlabRowsAreSeparateResults: the rows one flush delivers are cut from
// one result slab, yet each must behave as a result of its own. Appending
// to a row never reaches the next row, of its own request or the next
// member's, and a wave's rows stay bit-identical while the next three waves
// reuse the model's recycled batch slice with different inputs. Each Wait
// runs on its own goroutine, so under -race the one that leads the flush
// and those asleep behind it must all see the rows the flush wrote.
func TestSlabRowsAreSeparateResults(t *testing.T) {
	rt := newRT(t)
	cfg := batcher.DefaultConfig()
	cfg.Linger = 0
	cfg.ClientDepth = 16
	b := newBatcher(t, rt, cfg)
	c := b.Client("cli")

	counts := []int{1, 3, 1, 2} // one deadline flush of 7 items a wave
	const waves = 4
	in := make([][][][]float32, waves)
	out := make([][][][]float32, waves)
	for w := range in {
		in[w] = make([][][]float32, len(counts))
		out[w] = make([][][]float32, len(counts))
		pend := make([]*batcher.Pending, len(counts))
		for r, n := range counts {
			in[w][r] = make([][]float32, n)
			for i := range in[w][r] {
				in[w][r][i] = item(w*100 + r*10 + i)
			}
			p, err := c.Submit("testmodel", in[w][r])
			if err != nil {
				t.Fatal(err)
			}
			pend[r] = p
		}
		var wg sync.WaitGroup
		for r, p := range pend {
			wg.Add(1)
			go func() {
				defer wg.Done()
				o, err := p.Wait()
				if err != nil {
					t.Errorf("wave %d request %d: %v", w, r, err)
				}
				out[w][r] = o
			}()
		}
		wg.Wait()
	}
	if st := b.Stats(); st.Flushes != waves {
		t.Fatalf("flushes = %d, want one per wave (%d)", st.Flushes, waves)
	}

	check := func(when string) {
		t.Helper()
		for w := range out {
			for r := range out[w] {
				if len(out[w][r]) != counts[r] {
					t.Fatalf("%s: wave %d request %d has %d rows, want %d", when, w, r, len(out[w][r]), counts[r])
				}
				for i, row := range out[w][r] {
					want := forward(in[w][r][i])
					if len(row) != outW {
						t.Fatalf("%s: wave %d request %d row %d has %d outputs, want %d", when, w, r, i, len(row), outW)
					}
					for j := range want {
						if math.Float32bits(row[j]) != math.Float32bits(want[j]) {
							t.Fatalf("%s: wave %d request %d row %d = %v, want %v", when, w, r, i, row, want)
						}
					}
				}
			}
		}
	}
	check("after the last wave") // wave 0 outlived three reuses of its batch slice

	for _, rows := range out[0] {
		for _, row := range rows {
			_ = append(row, -1, -2)
		}
	}
	check("after appending to every row of wave 0")
}

// TestWaitReadsDeliveredWhileFlushing: waiters read their delivered
// requests while other goroutines' flushes write and deliver theirs. Each
// of eight submitters hands its requests to its own waiter and never waits
// itself, so full flushes run on submitter goroutines while waiters read:
// the flushing submitter's own request is always delivered before its Wait
// begins, the rest are waited for. Every result must be its own input's
// forward pass, delivered with its latency, and no request may queue past
// MaxWait. Meant for -race.
func TestWaitReadsDeliveredWhileFlushing(t *testing.T) {
	rt := newRT(t)
	cfg := batcher.DefaultConfig()
	cfg.MaxBatch = 4
	cfg.MaxWait = time.Millisecond
	cfg.Linger = 10 * time.Millisecond
	b := newBatcher(t, rt, cfg)

	const submitters, perSubmitter = 8, 64
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		handed := make(chan *batcher.Pending, cfg.ClientDepth)
		wg.Add(2)
		go func(s int) {
			defer wg.Done()
			defer close(handed)
			c := b.Client(fmt.Sprintf("cli%d", s))
			for i := 0; i < perSubmitter; {
				p, err := c.Submit("testmodel", [][]float32{item(s*perSubmitter + i)})
				if errors.Is(err, batcher.ErrBackpressure) {
					runtime.Gosched() // the waiter drains the client's depth
					continue
				}
				if err != nil {
					t.Errorf("submitter %d request %d: %v", s, i, err)
					return
				}
				handed <- p
				i++
			}
		}(s)
		go func(s int) {
			defer wg.Done()
			for i := 0; ; i++ {
				p, ok := <-handed
				if !ok {
					return
				}
				out, err := p.Wait()
				want := forward(item(s*perSubmitter + i))
				if lat := p.Latency(); err != nil || len(out) != 1 || !slices.Equal(out[0], want) || lat <= 0 {
					t.Errorf("waiter %d request %d: %v, %v after %v; want %v after a positive latency", s, i, out, err, lat, want)
				}
			}
		}(s)
	}
	wg.Wait()
	if st := b.Stats(); st.Requests != submitters*perSubmitter || st.Items != st.Requests || st.MaxQueueDelay > cfg.MaxWait {
		t.Fatalf("stats %+v, want %d one-item requests queued at most %v", st, submitters*perSubmitter, cfg.MaxWait)
	}
}
