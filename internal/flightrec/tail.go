package flightrec

import (
	"fmt"
	"strconv"
	"strings"
)

// Live tailing: a non-destructive, cursor-based reader over the per-domain
// MPSC rings. Snapshot copies whatever survives at one instant; Tail instead
// lets a consumer (the health plane's SLO engine, laked's /flightrec.tail
// endpoint) chase the writers' cursor incrementally, observing every event
// exactly once — or, when the writers lap a slow reader, counting exactly
// how many events it missed. Tailing costs the writers nothing: readers only
// perform atomic loads against the same slot protocol Emit already uses, so
// the zero-allocation hot path is untouched.
//
// Cursor protocol (per domain):
//
//   - The reader holds a position pos, the index of the next event it wants.
//     Writers publish slot idx with stamp = idx+1, so the reader accepts a
//     slot exactly when stamp == pos+1 and re-checks the stamp after copying
//     the payload (a change mid-copy means a writer lapped the ring during
//     the read — the event is gone, counted skipped).
//   - stamp > pos+1 means the slot was lapped before the reader arrived:
//     that event is lost, counted skipped, and the reader advances.
//   - stamp < pos+1 means the event is not published yet (a writer reserved
//     the index but has not finished its stores, or the index is beyond the
//     write cursor): the reader stops and will resume here next call, so an
//     in-flight event is never falsely counted skipped.
//   - If the write cursor has advanced more than a full ring capacity past
//     pos, everything in between was overwritten: the gap is added to the
//     skipped count in one step and pos jumps to the oldest surviving index.
//
// Every emitted event is therefore either returned exactly once or counted
// skipped exactly once (the count for an event racing a lapping writer may
// land on the call after the race resolves). Cursors are monotonic: no
// domain position ever moves backward.

// TailCursor is an opaque resumption point for Recorder.Tail. The zero
// value reads each domain's ring from its oldest surviving event. Cursors
// round-trip through String/ParseTailCursor for use as an HTTP query
// parameter.
type TailCursor struct {
	pos [numDomains]uint64
}

// Position returns the cursor's next event index for one domain (the count
// of that domain's events already consumed or skipped past).
func (c TailCursor) Position(d Domain) uint64 {
	if int(d) >= int(numDomains) {
		return 0
	}
	return c.pos[d]
}

// tailCursorVersion tags the wire form so a format change cannot silently
// misparse an old cursor (v1 carried a second, sampled-out word list).
const tailCursorVersion = "v2"

// String encodes the cursor for transport: "v2.<pos...>" with dot-separated
// hex words, one per domain.
func (c TailCursor) String() string {
	var b strings.Builder
	b.WriteString(tailCursorVersion)
	for _, p := range c.pos {
		b.WriteByte('.')
		b.WriteString(strconv.FormatUint(p, 16))
	}
	return b.String()
}

// ParseTailCursor decodes a String-encoded cursor. The empty string is the
// zero cursor (tail from the beginning).
func ParseTailCursor(s string) (TailCursor, error) {
	var c TailCursor
	if s == "" {
		return c, nil
	}
	parts := strings.Split(s, ".")
	if len(parts) != int(numDomains)+1 || parts[0] != tailCursorVersion {
		return c, fmt.Errorf("flightrec: malformed tail cursor %q", s)
	}
	for i, p := range parts[1:] {
		v, err := strconv.ParseUint(p, 16, 64)
		if err != nil {
			return c, fmt.Errorf("flightrec: malformed tail cursor %q: %w", s, err)
		}
		c.pos[i] = v
	}
	return c, nil
}

// Tail returns up to max events published since the cursor (0 or negative
// means no bound beyond one ring capacity per domain), the cursor to resume
// from, and how many events the reader missed — lost to overwrite or torn by
// a lapping writer mid-copy. Domains drain in ordinal order; when max
// truncates the read, the remainder is picked up by the next call. Nil-safe:
// a nil recorder returns no events and the cursor unchanged.
func (r *Recorder) Tail(c TailCursor, max int) (events []Event, next TailCursor, skipped uint64) {
	if r == nil {
		return nil, c, 0
	}
	if max <= 0 {
		max = int(numDomains) * int(r.base().rings[0].capacity())
	}
	buf := make([]Event, max)
	n, next, skipped := r.TailInto(c, buf)
	return buf[:n], next, skipped
}

// TailInto is Tail with a caller-owned buffer: it fills buf, returning the
// count filled. A reader that reuses its buffer tails allocation-free.
func (r *Recorder) TailInto(c TailCursor, buf []Event) (n int, next TailCursor, skipped uint64) {
	next = c
	if r == nil || len(buf) == 0 {
		return 0, next, 0
	}
	b := r.base()
	for d := Domain(0); d < numDomains; d++ {
		rg := b.rings[d]
		pos := next.pos[d]
		cur := rg.cursor.Load()
		if cap := rg.capacity(); cur > cap && pos < cur-cap {
			// The writers are at least a full ring ahead: everything in
			// [pos, cur-cap) was overwritten before we got here.
			skipped += (cur - cap) - pos
			pos = cur - cap
		}
	scan:
		for pos < cur && n < len(buf) {
			slot := pos & rg.mask
			st := rg.stamp[slot].Load()
			switch {
			case st == pos+1:
				var w [eventWords]uint64
				base := slot * eventWords
				for i := range w {
					w[i] = rg.words[base+uint64(i)].Load()
				}
				if rg.stamp[slot].Load() != pos+1 {
					// A writer lapped the ring and re-stamped the slot while
					// we copied: the event we wanted is gone.
					skipped++
					pos++
					continue
				}
				buf[n] = unpackEvent(w)
				n++
				pos++
			case st > pos+1:
				// Lapped before we arrived; the event was overwritten.
				skipped++
				pos++
			default:
				// st < pos+1: the slot is reserved but unpublished (a writer
				// mid-store) or invalidated by an in-flight lap. Stop this
				// domain — the next call resumes at pos and either reads the
				// published event or accounts the overwrite, never both.
				break scan
			}
		}
		next.pos[d] = pos
		if n == len(buf) {
			break
		}
	}
	return n, next, skipped
}
