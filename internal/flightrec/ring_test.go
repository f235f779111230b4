package flightrec

import (
	"slices"
	"testing"
)

// TestRingUnpublishedSlot pins the slot protocol without a race: a reserved
// but unpublished slot — a writer between its invalidation and its publish —
// is never read. Snapshot counts it dropped; TailInto stops in front of it
// and returns it exactly once after the publish. The lapped case re-reserves
// a slot whose previous event is still in the payload words, the window the
// invalidation store exists for. The CI chaos job runs it at -race -count=20.
func TestRingUnpublishedSlot(t *testing.T) {
	for _, tc := range []struct {
		name   string
		before uint64 // events published ahead of the reservation
	}{
		{"fresh slot", 3},
		{"lapped slot", 64}, // a 64-slot ring: the reservation reuses slot 0
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newTailRecorder(t, 64)
			rg := r.rings[DomainKernel]
			// emitN stamps trace = ring index, so traces name the slots.
			emitN(r, DomainKernel, 0, tc.before)
			idx := rg.reserve()
			if st := rg.stamp[idx&rg.mask].Load(); st != 0 {
				// A reader mid-copy of the lapped event must see its stamp change.
				t.Fatalf("reserve left stamp %d on its slot, want it invalidated", st)
			}
			emitN(r, DomainKernel, idx+1, 2)
			oldest := rg.overwritten()
			traces := func(evs []Event) (ts []uint64) {
				for _, e := range evs {
					ts = append(ts, e.TraceID)
				}
				return ts
			}
			span := func(lo, hi uint64) (ts []uint64) {
				for i := lo; i < hi; i++ {
					if i != idx {
						ts = append(ts, i)
					}
				}
				return ts
			}

			kd := r.Snapshot("unpublished").Domains[DomainKernel]
			if got, want := traces(kd.Events), span(oldest, idx+3); !slices.Equal(got, want) {
				t.Fatalf("snapshot traces %v, want %v (the reserved slot skipped)", got, want)
			}
			if kd.Dropped != oldest+1 {
				t.Fatalf("snapshot dropped %d, want %d overwritten + 1 unpublished", kd.Dropped, oldest)
			}

			buf := make([]Event, 256)
			n, cur, skipped := r.TailInto(TailCursor{}, buf)
			if got, want := traces(buf[:n]), span(oldest, idx); !slices.Equal(got, want) || skipped != oldest {
				t.Fatalf("tail %v skipped %d, want %v skipped %d", got, skipped, want, oldest)
			}
			if cur.Position(DomainKernel) != idx {
				t.Fatalf("tail stopped at %d, want in front of the reserved %d", cur.Position(DomainKernel), idx)
			}
			if n, again, skipped := r.TailInto(cur, buf); n != 0 || skipped != 0 || again != cur {
				t.Fatalf("re-tail before publish: %d events, %d skipped, cursor moved %v", n, skipped, again != cur)
			}

			rg.publish(idx, Event{TraceID: idx, Seq: idx, Domain: DomainKernel, Kind: EvCallStart}.pack())
			n, cur, skipped = r.TailInto(cur, buf)
			if got, want := traces(buf[:n]), []uint64{idx, idx + 1, idx + 2}; !slices.Equal(got, want) || skipped != 0 {
				t.Fatalf("tail after publish %v skipped %d, want %v skipped 0", got, skipped, want)
			}
			if n, _, skipped := r.TailInto(cur, buf); n != 0 || skipped != 0 {
				t.Fatalf("published event returned twice: %d more events, %d skipped", n, skipped)
			}
		})
	}
}
