package remoting

// journal is lakeD's exactly-once dedup log: every executed command's
// response frame is recorded under its sequence number before the response
// is sent. A redelivered sequence (a client retry after a lost response, or
// a duplicated frame in the channel) is answered from the journal without
// re-executing — the command's side effects happen at most once.
//
// In the modeled deployment the journal lives in a lakeD-private slice of
// the pinned CMA region backing lakeShm, which is why it survives a daemon
// crash: the restarted process re-attaches the same region and resumes
// deduplicating against pre-crash sequences. Here that persistence is
// modeled by the supervisor handing the same journal to the daemon across
// Restart.
//
// Capacity is bounded FIFO: sequence numbers are issued monotonically and a
// client abandons a call long before the journal cycles, so evicting the
// oldest entries is safe. Storage is a preallocated slot ring — record
// copies the frame into the slot's recycled buffer and eviction is
// overwrite-in-place — so a warmed journal records without heap allocation
// (part of the serving path's 0 allocs/op budget).
//
// The journal has no lock of its own: the daemon touches it only under
// pumpMu (PumpOne, ExportJournal, ImportJournal).
type journal struct {
	// slots is the fixed ring; next is the cursor the next record lands on
	// (== the oldest live entry once the ring has wrapped).
	slots []jentry
	next  int
	// byseq indexes live slots by sequence number.
	byseq  map[uint64]int
	live   int
	evicts int64
}

// jentry is one journal slot. buf keeps its capacity across evictions.
type jentry struct {
	seq  uint64
	buf  []byte
	used bool
}

// defaultJournalCap covers far more in-flight sequences than the transport
// can buffer; see the eviction argument above.
const defaultJournalCap = 4096

func newJournal(capacity int) *journal {
	if capacity <= 0 {
		capacity = defaultJournalCap
	}
	return &journal{
		slots: make([]jentry, capacity),
		byseq: make(map[uint64]int, capacity),
	}
}

// lookup returns the recorded response frame for seq, if any (a detected
// redelivery; the daemon counts it). The returned frame aliases journal storage:
// it is valid until the journal cycles past the entry, which cannot happen
// before the caller's immediately following send (the transport copies).
func (j *journal) lookup(seq uint64) ([]byte, bool) {
	i, ok := j.byseq[seq]
	if !ok {
		return nil, false
	}
	return j.slots[i].buf, true
}

// record stores a copy of the response frame for seq, evicting the oldest
// entry at capacity. Recording an already-present seq is a no-op (the first
// execution's response stands).
func (j *journal) record(seq uint64, frame []byte) {
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

// stats returns (evictions, live entries).
func (j *journal) stats() (evicts int64, live int) {
	return j.evicts, j.live
}
