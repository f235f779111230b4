package remoting

import (
	"fmt"
	"testing"
)

func TestJournalDedup(t *testing.T) {
	j := newJournal(8)
	if _, ok := j.lookup(1); ok {
		t.Fatal("empty journal reported a hit")
	}
	j.record(1, []byte("first"))
	got, ok := j.lookup(1)
	if !ok || string(got) != "first" {
		t.Fatalf("lookup(1) = %q, %v", got, ok)
	}
	// Re-recording must not replace the original response.
	j.record(1, []byte("second"))
	if got, _ := j.lookup(1); string(got) != "first" {
		t.Fatalf("duplicate record replaced the response: %q", got)
	}
	evicts, live := j.stats()
	if evicts != 0 || live != 1 {
		t.Fatalf("stats = (%d, %d), want (0, 1)", evicts, live)
	}
}

func TestJournalFIFOEviction(t *testing.T) {
	const capacity = 4
	j := newJournal(capacity)
	for seq := uint64(1); seq <= 10; seq++ {
		j.record(seq, []byte(fmt.Sprintf("r%d", seq)))
	}
	evicts, live := j.stats()
	if live != capacity || evicts != 10-capacity {
		t.Fatalf("live=%d evicts=%d, want %d and %d", live, evicts, capacity, 10-capacity)
	}
	// Oldest sequences are gone, newest retained.
	for seq := uint64(1); seq <= 6; seq++ {
		if _, ok := j.lookup(seq); ok {
			t.Fatalf("evicted seq %d still present", seq)
		}
	}
	for seq := uint64(7); seq <= 10; seq++ {
		if got, ok := j.lookup(seq); !ok || string(got) != fmt.Sprintf("r%d", seq) {
			t.Fatalf("retained seq %d lost or wrong: %q %v", seq, got, ok)
		}
	}
}

func TestJournalDefaultCapacity(t *testing.T) {
	j := newJournal(0)
	if len(j.slots) != defaultJournalCap {
		t.Fatalf("cap = %d, want %d", len(j.slots), defaultJournalCap)
	}
}

func TestJournalSurvivesDaemonRestart(t *testing.T) {
	// The journal models shm-backed state: Restart must not clear it, so
	// pre-crash sequences still deduplicate afterwards.
	s := newStack(t)
	s.lib.CuInit()
	s.daemon.journal.record(77777, []byte("pre-crash"))
	s.daemon.InjectCrash(false)
	frame, err := AppendCommand(nil, &Command{API: APICuDeviceGetCount, Seq: 123})
	if err != nil {
		t.Fatal(err)
	}
	s.tr.SendToUser(frame) // give PumpOne a command to die on
	s.daemon.PumpOne()
	if !s.daemon.Crashed() {
		t.Fatal("injected crash did not take")
	}
	s.daemon.Restart()
	if got, ok := s.daemon.journal.lookup(77777); !ok || string(got) != "pre-crash" {
		t.Fatalf("journal entry lost across restart: %q %v", got, ok)
	}
}
