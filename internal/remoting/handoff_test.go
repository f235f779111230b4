package remoting

import (
	"bytes"
	"testing"
)

// TestHandoffMigrationExactlyOnce is the wire-level migration contract: a
// command executed on shard A whose journal crossed to shard B as a sealed
// handoff frame must, when the same wire frame is redelivered to B, be
// answered byte-identically from the journal — never re-executed.
func TestHandoffMigrationExactlyOnce(t *testing.T) {
	a, b := newStack(t), newStack(t)

	frame, err := AppendCommand(nil, &Command{API: APICuDeviceGetCount, Seq: 41})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.tr.SendToUser(frame); err != nil {
		t.Fatal(err)
	}
	if a.daemon.Pump() != 1 {
		t.Fatal("shard A daemon had nothing to pump")
	}
	respA, ok := a.tr.RecvInKernel()
	if !ok {
		t.Fatal("no response from shard A")
	}
	if got := a.daemon.Executed(); got != 1 {
		t.Fatalf("shard A executed %d commands, want 1", got)
	}

	// Migrate: export A's journal, cross the sealed wire frame, import
	// into B.
	hframe, err := MarshalHandoff(&Handoff{SrcShard: 0, DstShard: 1, Entries: a.daemon.ExportJournal()})
	if err != nil {
		t.Fatal(err)
	}
	h, err := UnmarshalHandoff(hframe)
	if err != nil {
		t.Fatal(err)
	}
	if n := b.daemon.ImportJournal(h.Entries); n == 0 {
		t.Fatal("no journal entries imported into shard B")
	}

	// A flipped bit anywhere in the frame must reject the whole handoff.
	bad := bytes.Clone(hframe)
	bad[len(bad)/2] ^= 0x01
	if _, err := UnmarshalHandoff(bad); err == nil {
		t.Fatal("corrupted handoff frame decoded")
	}

	// Redeliver the original wire frame to B: answered from the migrated
	// journal, byte-identical, zero re-executed.
	if err := b.tr.SendToUser(frame); err != nil {
		t.Fatal(err)
	}
	if b.daemon.Pump() != 1 {
		t.Fatal("shard B daemon had nothing to pump")
	}
	respB, ok := b.tr.RecvInKernel()
	if !ok {
		t.Fatal("no response from shard B")
	}
	if !bytes.Equal(respA, respB) {
		t.Fatal("journal-served response differs from the original execution")
	}
	if got := b.daemon.Executed(); got != 0 {
		t.Fatalf("shard B re-executed %d migrated commands", got)
	}
	if got := b.daemon.Redelivered(); got != 1 {
		t.Fatalf("shard B redelivered %d, want 1", got)
	}
}

// TestImportJournalKeepsLocalEntries: a successor that imports a full
// source journal still answers its own clients' redeliveries. Ten local
// sequences are recorded, 4096 shard-tagged entries imported, and all ten
// remain journaled with nothing evicted; after the import the grown journal
// evicts FIFO again, oldest first.
func TestImportJournalKeepsLocalEntries(t *testing.T) {
	d := journalDaemon(t, 0)
	for seq := uint64(1); seq <= 10; seq++ {
		d.journal.record(seq, journalFrame(seq, 0))
	}
	src := make([]JournalEntry, defaultJournalCap)
	for i := range src {
		s := uint64(1)<<48 | uint64(i+1)
		src[i] = JournalEntry{Seq: s, Frame: journalFrame(s, 2)}
	}
	if n := d.ImportJournal(src); n != len(src) {
		t.Fatalf("ImportJournal absorbed %d of %d", n, len(src))
	}
	hits := 0
	for seq := uint64(1); seq <= 10; seq++ {
		if got, ok := d.journal.lookup(seq); ok && bytes.Equal(got, journalFrame(seq, 0)) {
			hits++
		}
	}
	if hits != 10 {
		t.Fatalf("%d of 10 local sequences still journaled after the import", hits)
	}
	if evicts, live := d.journal.stats(); evicts != 0 || live != 10+len(src) {
		t.Fatalf("stats = (%d, %d), want (0, %d)", evicts, live, 10+len(src))
	}
	for _, e := range src {
		if got, ok := d.journal.lookup(e.Seq); !ok || !bytes.Equal(got, e.Frame) {
			t.Fatalf("imported seq %#x lost or wrong", e.Seq)
		}
	}
	d.journal.record(11, journalFrame(11, 0))
	if _, ok := d.journal.lookup(1); ok {
		t.Fatal("a record on the full grown journal did not evict the oldest entry")
	}
	if _, ok := d.journal.lookup(2); !ok {
		t.Fatal("a record on the full grown journal evicted more than the oldest entry")
	}
}
