package gpu

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"lakego/internal/vtime"
)

// refLedger is the keep-everything model the span ring is checked against:
// it never retires a span and recomputes every query from the full history.
type refLedger struct {
	busyUntil time.Duration
	spans     []busySpan
}

func (r *refLedger) queue(now time.Duration) time.Duration {
	if r.busyUntil > now {
		return r.busyUntil
	}
	return now
}

func (r *refLedger) utilization(now, window time.Duration, client string) float64 {
	from := now - window
	if from < 0 {
		from, window = 0, now
		if window == 0 {
			return 0
		}
	}
	var busy time.Duration
	for _, s := range r.spans {
		if client != "" && s.client != client {
			continue
		}
		st, en := max(s.start, from), min(s.end, now)
		if en > st {
			busy += en - st
		}
	}
	return math.Min(float64(busy)/float64(window), 1)
}

// Differential: a seeded mix of the three occupancy calls, run far past the
// 5 s horizon and across a widening to 12 s, must answer every Utilization
// query bit-for-bit like the reference that retires nothing.
func TestLedgerMatchesKeepEverythingReference(t *testing.T) {
	const ops = 100_000
	const wide = 12 * time.Second
	clk := vtime.New()
	d := New(DefaultSpec(), clk)
	ref := &refLedger{}
	rng := rand.New(rand.NewSource(22))
	clients := []string{"mllb", "linnos", "hog"}
	windows := []time.Duration{time.Millisecond, 50 * time.Millisecond, time.Second, utilizationHistory, wide}
	widenedAt := time.Duration(-1)

	for i := 0; i < ops; i++ {
		client := clients[rng.Intn(len(clients))]
		now := clk.Now()
		switch rng.Intn(4) {
		case 0, 1:
			cost := time.Duration(100+rng.Intn(1400)) * time.Microsecond
			start := ref.queue(now)
			ref.busyUntil = start + cost
			ref.spans = append(ref.spans, busySpan{client, start, start + cost})
			d.Execute(client, cost, nil)
		case 2:
			until := now + time.Duration(rng.Intn(900)-100)*time.Microsecond
			if start := ref.queue(now); until >= start {
				ref.busyUntil = until
				ref.spans = append(ref.spans, busySpan{client, start, until})
			}
			d.OccupyUntil(client, until)
		case 3:
			start := now + time.Duration(rng.Intn(400)-200)*time.Microsecond
			end := start + time.Duration(rng.Intn(300)-20)*time.Microsecond
			if end > start {
				ref.busyUntil = max(ref.busyUntil, end)
				ref.spans = append(ref.spans, busySpan{client, start, end})
			}
			d.OccupySpan(client, start, end)
		}
		if got := d.BusyUntil(); got != ref.busyUntil {
			t.Fatalf("op %d: BusyUntil = %v, reference %v", i, got, ref.busyUntil)
		}
		if i%2000 != 1999 {
			continue
		}
		// Queries are taken with the clock past every recorded span, as the
		// experiments take them: a span laid ahead of the clock retires
		// against its own end, not against now.
		now = clk.AdvanceTo(ref.busyUntil)
		if i == ops*3/10-1 {
			d.Utilization(wide, "")
			widenedAt = now
		}
		for _, w := range windows {
			// The wide window is answerable only once a full width of
			// history has been kept under the widened horizon.
			if w == wide && (widenedAt < 0 || now < widenedAt+wide) {
				continue
			}
			for _, c := range []string{"", "linnos"} {
				got, want := d.Utilization(w, c), ref.utilization(now, w, c)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("op %d, t=%v: Utilization(%v, %q) = %v, reference %v", i, now, w, c, got, want)
				}
			}
		}
	}
	if now := clk.Now(); widenedAt < 0 || now < widenedAt+2*wide {
		t.Fatalf("run ended at %v, widened at %v: the 12 s window was never exercised past its horizon", now, widenedAt)
	}
}

// Right of the window every launch retires about as many spans as it
// records, so the ring must neither allocate nor hold more than the doubling
// it grew by. Counts only: nothing here depends on elapsed time.
func TestLedgerSteadyStateAllocatesNothing(t *testing.T) {
	d := New(DefaultSpec(), vtime.New())
	for i := 0; i < 100_000; i++ {
		d.Execute("x", 100*time.Microsecond, nil)
	}
	if now := d.Clock().Now(); now <= utilizationHistory {
		t.Fatalf("clock at %v, not past the %v horizon", now, utilizationHistory)
	}
	if a := testing.AllocsPerRun(1000, func() { d.Execute("x", 100*time.Microsecond, nil) }); a != 0 {
		t.Fatalf("Execute right of the window: %v allocs/op, want 0", a)
	}
	if c, live := len(d.spans), d.n; c > 2*live+16 {
		t.Fatalf("ring holds %d slots for %d live spans", c, live)
	}
}
