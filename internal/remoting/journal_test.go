package remoting

import (
	"bytes"
	"fmt"
	"testing"

	"lakego/internal/faults"
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
	s.tr.SendToUser(frame) // give Pump a command to die on
	if n := s.daemon.Pump(); n != 0 {
		t.Fatalf("Pump served %d commands through a crash, want 0", n)
	}
	if !s.daemon.Crashed() {
		t.Fatal("injected crash did not take")
	}
	s.daemon.Restart()
	if got, ok := s.daemon.journal.lookup(77777); !ok || string(got) != "pre-crash" {
		t.Fatalf("journal entry lost across restart: %q %v", got, ok)
	}
}

// TestPumpServesChannelDuplicateFromJournal: a fault-plane duplicate of a
// command frame is served in the same Pump as the original and answered
// from the journal — redelivered +1, executed +0 for the copy.
func TestPumpServesChannelDuplicateFromJournal(t *testing.T) {
	s := newStack(t)
	s.lib.CuInit()
	s.tr.InjectFaults(faults.NewPlane(faults.Mix{Duplicate: 1, Seed: 1}, s.clock))
	executed, redelivered := s.daemon.Executed(), s.daemon.Redelivered()
	frame, err := AppendCommand(nil, &Command{API: APICuDeviceGetCount, Seq: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.tr.SendToUser(frame); err != nil {
		t.Fatal(err)
	}
	if n := s.daemon.Pump(); n != 2 {
		t.Fatalf("Pump served %d frames, want the command and its duplicate", n)
	}
	if got := s.daemon.Executed() - executed; got != 1 {
		t.Fatalf("executed +%d, want +1 (the duplicate must not run)", got)
	}
	if got := s.daemon.Redelivered() - redelivered; got != 1 {
		t.Fatalf("redelivered +%d, want +1", got)
	}
	// Both answers are duplicated on the way back: four identical frames.
	var first []byte
	for i := 0; i < 4; i++ {
		resp, ok := s.tr.RecvInKernel()
		if !ok {
			t.Fatalf("response %d missing", i)
		}
		if first == nil {
			first = bytes.Clone(resp)
		} else if !bytes.Equal(resp, first) {
			t.Fatalf("response %d differs from the executed answer", i)
		}
	}
	if _, ok := s.tr.RecvInKernel(); ok {
		t.Fatal("more than four responses")
	}
}

// TestPumpStopsAtCrashMidQueue: a crash point ends the pump with the rest
// of the queue left for the restarted daemon. The frames ahead of the crash
// were served, the crashed command was lost, and nothing runs twice.
func TestPumpStopsAtCrashMidQueue(t *testing.T) {
	s := newStack(t)
	send := func(seq uint64) {
		t.Helper()
		frame, err := AppendCommand(nil, &Command{API: APICuDeviceGetCount, Seq: seq})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.tr.SendToUser(frame); err != nil {
			t.Fatal(err)
		}
	}
	send(100)
	if n := s.daemon.Pump(); n != 1 {
		t.Fatalf("Pump served %d, want 1", n)
	}
	send(100) // a redelivery: answered from the journal, no crash point
	send(101) // dies before executing
	send(102) // still queued when the daemon goes down
	s.daemon.InjectCrash(false)
	if n := s.daemon.Pump(); n != 1 {
		t.Fatalf("Pump served %d before the crash, want 1 (the redelivery)", n)
	}
	if !s.daemon.Crashed() {
		t.Fatal("crash point did not take")
	}
	if n := s.daemon.Pump(); n != 0 {
		t.Fatalf("crashed daemon served %d", n)
	}
	s.daemon.Restart()
	if n := s.daemon.Pump(); n != 1 {
		t.Fatalf("restarted daemon served %d, want the one command left queued", n)
	}
	if e, r := s.daemon.Executed(), s.daemon.Redelivered(); e != 2 || r != 1 {
		t.Fatalf("executed %d, redelivered %d; want 2 (seq 100, 102) and 1", e, r)
	}
	if _, ok := s.daemon.journal.lookup(101); ok {
		t.Fatal("the command lost in the crash was journaled")
	}
}
