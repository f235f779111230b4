package remoting

import (
	"encoding/binary"
	"reflect"
	"testing"

	"lakego/internal/boundary"
	"lakego/internal/vtime"
)

// The reference journal below is the map-indexed journal that preceded the
// open-addressed index, kept verbatim apart from the ref prefix on each
// name (its export lived in handoff.go) and the import rule, reserve, which
// the live journal gained later. FuzzJournalDifferential holds the live
// journal to it.

type refJournal struct {
	// slots is the fixed ring; next is the cursor the next record lands on
	// (== the oldest live entry once the ring has wrapped).
	slots []refJentry
	next  int
	// byseq indexes live slots by sequence number.
	byseq  map[uint64]int
	live   int
	evicts int64
}

// refJentry is one journal slot. buf keeps its capacity across evictions.
type refJentry struct {
	seq  uint64
	buf  []byte
	used bool
}

func newRefJournal(capacity int) *refJournal {
	if capacity <= 0 {
		capacity = defaultJournalCap
	}
	return &refJournal{
		slots: make([]refJentry, capacity),
		byseq: make(map[uint64]int, capacity),
	}
}

// lookup returns the recorded response frame for seq, if any (a detected
// redelivery; the daemon counts it). The returned frame aliases journal storage:
// it is valid until the journal cycles past the entry, which cannot happen
// before the caller's immediately following send (the transport copies).
func (j *refJournal) lookup(seq uint64) ([]byte, bool) {
	i, ok := j.byseq[seq]
	if !ok {
		return nil, false
	}
	return j.slots[i].buf, true
}

// record stores a copy of the response frame for seq, evicting the oldest
// entry at capacity. Recording an already-present seq is a no-op (the first
// execution's response stands).
func (j *refJournal) record(seq uint64, frame []byte) {
	if _, dup := j.byseq[seq]; dup {
		return
	}
	s := &j.slots[j.next]
	if s.used {
		delete(j.byseq, s.seq)
		j.evicts++
	} else {
		s.used = true
		j.live++
	}
	s.seq = seq
	s.buf = append(s.buf[:0], frame...)
	j.byseq[seq] = j.next
	j.next++
	if j.next == len(j.slots) {
		j.next = 0
	}
}

// reserve grows the journal so that n more entries fit beside the live
// ones without an eviction: a journal of exactly live+n slots takes the
// live entries, oldest first.
func (j *refJournal) reserve(n int) {
	if j.live+n > len(j.slots) {
		g := newRefJournal(j.live + n)
		for _, e := range j.export() {
			g.record(e.Seq, e.Frame)
		}
		g.evicts = j.evicts
		*j = *g
	}
}

// stats returns (evictions, live entries).
func (j *refJournal) stats() (evicts int64, live int) {
	return j.evicts, j.live
}

// export snapshots the journal's live entries in FIFO order, walking the
// slot ring from the eviction cursor (the oldest live entry once wrapped).
// Frames are copied: the snapshot must stay intact while the source journal
// keeps recording during a drain.
func (j *refJournal) export() []JournalEntry {
	out := make([]JournalEntry, 0, j.live)
	n := len(j.slots)
	for k := 0; k < n; k++ {
		s := &j.slots[(j.next+k)%n]
		if !s.used {
			continue
		}
		frame := make([]byte, len(s.buf))
		copy(frame, s.buf)
		out = append(out, JournalEntry{Seq: s.seq, Frame: frame})
	}
	return out
}

// Journal ops of FuzzJournalDifferential's byte program: each op is one
// byte (its value mod journalOps), some followed by an operand byte or an
// explicit little-endian 8-byte sequence.
const (
	jopRecord    = iota // record the next fresh local sequence
	jopRecordSeq        // record an explicit sequence (8 bytes follow)
	jopDuplicate        // re-record a recorded sequence with another frame (operand picks it)
	jopLookup           // look up a recorded sequence, maybe evicted (operand picks it)
	jopLookupSeq        // look up an explicit sequence (8 bytes follow)
	jopExport           // export both journals
	jopImport           // ImportJournal a batch of shard-tagged sequences (operand sizes it)
	journalOps
)

// journalFrame is the response frame a test records for seq: 0 to 8 bytes
// that differ with seq and with which writer (v) recorded it.
func journalFrame(seq uint64, v byte) []byte {
	b := binary.LittleEndian.AppendUint64(nil, seq^uint64(v)<<56)
	return b[:seq%9]
}

// journalDaemon is a Daemon with a journal of the given capacity and a real
// transport, whose exchange lock ImportJournal and ExportJournal take, and
// nothing else.
func journalDaemon(t *testing.T, capacity int) *Daemon {
	t.Helper()
	tr, err := boundary.NewRingTransport(vtime.New(), nil, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	return &Daemon{tr: tr, journal: newJournal(capacity)}
}

// runJournalProgram runs one op program against the live journal, behind a
// bare Daemon so ImportJournal and ExportJournal are the real entry points,
// and against the reference, failing on the first difference.
func runJournalProgram(t *testing.T, capacity int, prog []byte) {
	t.Helper()
	d := journalDaemon(t, capacity)
	ref := newRefJournal(capacity)
	var hist []uint64
	var fresh, imported uint64
	next := func() (byte, bool) {
		if len(prog) == 0 {
			return 0, false
		}
		b := prog[0]
		prog = prog[1:]
		return b, true
	}
	seq8 := func() (uint64, bool) {
		if len(prog) < 8 {
			prog = nil
			return 0, false
		}
		s := binary.LittleEndian.Uint64(prog)
		prog = prog[8:]
		return s, true
	}
	pick := func(b byte) uint64 { return hist[int(b)%len(hist)] }
	check := func(op int, seq uint64) {
		t.Helper()
		got, gok := d.journal.lookup(seq)
		want, wok := ref.lookup(seq)
		if gok != wok || string(got) != string(want) {
			t.Fatalf("cap %d op %d: lookup(%#x) = %x %v, reference %x %v", capacity, op, seq, got, gok, want, wok)
		}
	}
	for op := 0; ; op++ {
		b, ok := next()
		if !ok {
			break
		}
		switch int(b) % journalOps {
		case jopRecord:
			fresh++
			d.journal.record(fresh, journalFrame(fresh, 0))
			ref.record(fresh, journalFrame(fresh, 0))
			hist = append(hist, fresh)
		case jopRecordSeq:
			s, ok := seq8()
			if !ok {
				break
			}
			d.journal.record(s, journalFrame(s, 0))
			ref.record(s, journalFrame(s, 0))
			hist = append(hist, s)
		case jopDuplicate:
			o, ok := next()
			if !ok || len(hist) == 0 {
				break
			}
			s := pick(o)
			d.journal.record(s, journalFrame(s, 1))
			ref.record(s, journalFrame(s, 1))
			check(op, s)
		case jopLookup:
			o, ok := next()
			if !ok || len(hist) == 0 {
				break
			}
			check(op, pick(o))
		case jopLookupSeq:
			if s, ok := seq8(); ok {
				check(op, s)
			}
		case jopExport:
			if got, want := d.ExportJournal(), ref.export(); !reflect.DeepEqual(got, want) {
				t.Fatalf("cap %d op %d: export differs:\n got %v\nwant %v", capacity, op, got, want)
			}
		case jopImport:
			o, ok := next()
			if !ok {
				break
			}
			shard := uint64(1 + (o>>3)%4)
			batch := make([]JournalEntry, 0, 9)
			for k := 0; k <= int(o%8); k++ {
				imported++
				s := shard<<48 | imported
				batch = append(batch, JournalEntry{Seq: s, Frame: journalFrame(s, 2)})
			}
			if o&0x80 != 0 && len(hist) > 0 {
				// A sequence the journal already holds: first writer wins.
				s := hist[len(hist)-1]
				batch = append(batch, JournalEntry{Seq: s, Frame: journalFrame(s, 3)})
			}
			if n := d.ImportJournal(batch); n != len(batch) {
				t.Fatalf("cap %d op %d: ImportJournal absorbed %d of %d", capacity, op, n, len(batch))
			}
			ref.reserve(len(batch))
			for _, e := range batch {
				ref.record(e.Seq, e.Frame)
				hist = append(hist, e.Seq)
			}
		}
		ge, gl := d.journal.stats()
		we, wl := ref.stats()
		if ge != we || gl != wl {
			t.Fatalf("cap %d op %d: stats (%d, %d), reference (%d, %d)", capacity, op, ge, gl, we, wl)
		}
		// Every live entry holds exactly one index cell: a leaked or
		// doubled cell would fill the table long before a lookup misses.
		cells := 0
		for _, c := range d.journal.index {
			if c != 0 {
				cells++
			}
		}
		if cells != gl {
			t.Fatalf("cap %d op %d: %d index cells in use for %d live entries", capacity, op, cells, gl)
		}
	}
	if got, want := d.ExportJournal(), ref.export(); !reflect.DeepEqual(got, want) {
		t.Fatalf("cap %d: final export differs:\n got %v\nwant %v", capacity, got, want)
	}
	for _, s := range hist {
		check(-1, s)
	}
}

// FuzzJournalDifferential runs one op program against the open-addressed
// journal and the map-indexed reference at capacities 1, 4, 7 and 4096:
// every lookup, every export and the eviction and live counts must agree.
// The committed corpus holds sequences whose hash homes collide, probe
// chains that wrap past the table's last cell and are then evicted (the
// backward shift across the wrap), a run that cycles the 4096-slot ring,
// and shard-tagged imports mixed with local records.
func FuzzJournalDifferential(f *testing.F) {
	f.Add([]byte{jopRecord, jopRecord, jopDuplicate, 0, jopLookup, 1, jopExport})
	f.Add([]byte{jopImport, 0x9b, jopRecord, jopLookup, 3, jopImport, 0x07, jopExport})
	f.Fuzz(func(t *testing.T, prog []byte) {
		for _, c := range []int{1, 4, 7, defaultJournalCap} {
			runJournalProgram(t, c, prog)
		}
	})
}

// TestJournalWarmRecordLookupAllocatesNothing: once every slot's buffer has
// held a frame, recording (with its eviction) and looking up touch no heap.
func TestJournalWarmRecordLookupAllocatesNothing(t *testing.T) {
	j := newJournal(0)
	frame := make([]byte, 48)
	seq := uint64(0)
	for ; seq < 2*defaultJournalCap; seq++ {
		j.record(seq, frame)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		seq++
		if _, ok := j.lookup(seq); ok {
			t.Fatal("fresh sequence already journaled")
		}
		j.record(seq, frame)
		if _, ok := j.lookup(seq - defaultJournalCap + 1); !ok {
			t.Fatal("oldest live sequence missing")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm record+lookup allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkJournal is one served command's journal work — a lookup that
// misses, then a record that evicts the oldest entry — on a full journal
// of the default capacity, for the reference and the live index.
func BenchmarkJournal(b *testing.B) {
	b.Run("ref", func(b *testing.B) { benchJournal(b, newRefJournal(0)) })
	b.Run("index", func(b *testing.B) { benchJournal(b, newJournal(0)) })
}

func benchJournal[J interface {
	lookup(uint64) ([]byte, bool)
	record(uint64, []byte)
}](b *testing.B, j J) {
	frame := make([]byte, 48)
	seq := uint64(0)
	for ; seq < 2*defaultJournalCap; seq++ {
		j.record(seq, frame)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq++
		if _, dup := j.lookup(seq); dup {
			b.Fatalf("seq %d already journaled", seq)
		}
		j.record(seq, frame)
	}
}
