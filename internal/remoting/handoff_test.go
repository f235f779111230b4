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
