package flightrec

import (
	"strconv"
	"testing"

	"lakego/internal/vtime"
)

// FuzzReadDump drives laketrace's path over arbitrary bytes: any dump
// ReadDump accepts must stitch and render every view without panicking.
// Seeds live in testdata/fuzz/FuzzReadDump: a recorder snapshot of
// complete, unfinished and batched calls, and hand-written edge dumps.
func FuzzReadDump(f *testing.F) {
	clock := vtime.New()
	r := New(clock, 64)
	r.SetEnabled(true)
	emitCall(r, clock, 1, 1, 3)
	r.Emit(DomainBatcher, EvEnqueue, 7, 1, 0, 1, 9, 0)
	r.Emit(DomainBatcher, EvFlushStart, 8, 1, 0, 1, 0, 9)
	emitCall(r, clock, 8, 2, 4)
	r.Emit(DomainKernel, EvCallStart, 99, 99, 0, 3, 0, 0)
	js, err := r.Snapshot("fuzz").JSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(js)
	name := func(id uint64) string { return strconv.FormatUint(id, 10) }
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDump(data)
		if err != nil {
			return
		}
		res := Stitch(d)
		BreakdownTable(res.Timelines, name)
		TailAttribution(res.Timelines, 0.99, name)
		if _, err := ChromeTrace(res, name); err != nil {
			t.Fatalf("ChromeTrace of a parsed dump: %v", err)
		}
	})
}

// FuzzParseTailCursor checks that /flightrec.tail's cursor parameter never
// panics the parser and that every cursor it accepts survives a
// String/ParseTailCursor round trip.
func FuzzParseTailCursor(f *testing.F) {
	f.Add(TailCursor{pos: [numDomains]uint64{1, 2, 3}}.String())
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseTailCursor(s)
		if err != nil {
			return
		}
		back, err := ParseTailCursor(c.String())
		if err != nil || back != c {
			t.Fatalf("cursor %q: round trip of %q gave %v, %v", s, c.String(), back, err)
		}
	})
}
