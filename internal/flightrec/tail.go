package flightrec

import (
	"fmt"
	"strconv"
	"strings"
)

// Live tailing: a non-destructive, cursor-based reader over the per-domain
// rings. Snapshot copies whatever survives at one instant; Tail instead
// lets a consumer (the health plane's SLO engine, laked's /flightrec.tail
// endpoint) chase the writers' cursor incrementally, observing every event
// exactly once — or, when the writers lap a slow reader, counting exactly
// how many events it missed.
//
// Cursor protocol (per domain): the reader holds a position pos, the index
// of the next event it wants. Under the ring's lock it copies the events in
// [pos, cursor); if the writers have advanced more than a full ring
// capacity past pos, everything in between was overwritten — the gap is
// added to the skipped count in one step and pos jumps to the oldest
// surviving index. Slots are written and read only under that lock, so
// there is no half-written event to wait for or to miscount: every emitted
// event is returned exactly once or counted skipped exactly once, and
// cursors are monotonic.

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

// Tail returns up to max events published since the cursor, the cursor to
// resume from, and how many events the reader missed to overwrite; 0 or
// negative max means no bound. The result is sized to the events surviving
// past the cursor when Tail counts them, capped by max: events published
// after that count are left for the next call. Domains drain in ordinal
// order; when max truncates the read, the remainder is picked up by the
// next call. Nil-safe: a nil recorder returns no events and the cursor
// unchanged.
func (r *Recorder) Tail(c TailCursor, max int) (events []Event, next TailCursor, skipped uint64) {
	if r == nil {
		return nil, c, 0
	}
	var avail uint64
	for d, rg := range r.base().rings {
		avail += pending(rg, c.pos[d])
	}
	if max <= 0 || uint64(max) > avail {
		max = int(avail)
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
	for d := Domain(0); d < numDomains && n < len(buf); d++ {
		got, pos, sk := b.rings[d].tail(next.pos[d], buf[n:])
		n += got
		next.pos[d] = pos
		skipped += sk
	}
	return n, next, skipped
}
