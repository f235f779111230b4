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
// oldest entries is safe.
// Storage is a preallocated slot ring — record copies the frame into the
// slot's recycled buffer and eviction is overwrite-in-place — indexed by an
// open-addressed hash table of slot numbers (Fibonacci hash of the
// sequence, linear probing, deletion by backward shift, so no tombstones
// build up). Neither structure grows or allocates once the slot buffers are
// warm, so a warmed journal records and looks up without heap allocation
// (part of the serving path's 0 allocs/op budget). The table hashes the
// whole sequence, so any run of sequences spreads over the cells.
//
// The journal has no lock of its own: the daemon touches it only under the
// exchange lock (Pump).
type journal struct {
	// slots is the fixed ring; next is the cursor the next record lands on
	// (== the oldest live entry once the ring has wrapped). The live
	// entries are the `live` slots ending just before next.
	slots []jentry
	next  int
	live  int
	// index has a power-of-two length of at least twice len(slots), so a
	// probe always meets an empty cell. Each cell holds a live slot's number
	// plus one, 0 when empty. shift turns the 64-bit hash into a cell.
	index  []int32
	shift  uint
	evicts int64
}

// jentry is one journal slot. buf keeps its capacity across evictions.
type jentry struct {
	seq uint64
	buf []byte
}

// defaultJournalCap covers far more in-flight sequences than the transport
// can buffer; see the eviction argument above.
const defaultJournalCap = 4096

func newJournal(capacity int) *journal {
	if capacity <= 0 {
		capacity = defaultJournalCap
	}
	bits := uint(1)
	for 1<<bits < 2*capacity {
		bits++
	}
	return &journal{
		slots: make([]jentry, capacity),
		index: make([]int32, 1<<bits),
		shift: 64 - bits,
	}
}

// home is seq's preferred index cell: the top bits of its Fibonacci hash.
func (j *journal) home(seq uint64) int {
	return int((seq * 0x9E3779B97F4A7C15) >> j.shift)
}

// find returns the index cell holding seq, or else the empty cell that
// ends seq's probe chain, where an insert of seq belongs.
func (j *journal) find(seq uint64) (cell int, ok bool) {
	mask := len(j.index) - 1
	for c := j.home(seq); ; c = (c + 1) & mask {
		s := j.index[c]
		if s == 0 {
			return c, false
		}
		if j.slots[s-1].seq == seq {
			return c, true
		}
	}
}

// unindex empties cell and closes the gap by shifting back every later
// entry of the probe run that may not be left behind it, so each live
// sequence stays reachable from its home without a tombstone.
func (j *journal) unindex(cell int) {
	mask := len(j.index) - 1
	gap := cell
	for c := (gap + 1) & mask; j.index[c] != 0; c = (c + 1) & mask {
		// The entry at c may fill the gap unless its home lies cyclically
		// in (gap, c]: it is at least as far from its home as from the gap.
		if (c-j.home(j.slots[j.index[c]-1].seq))&mask >= (c-gap)&mask {
			j.index[gap] = j.index[c]
			gap = c
		}
	}
	j.index[gap] = 0
}

// lookup returns the recorded response frame for seq, if any (a detected
// redelivery; the daemon counts it). The returned frame aliases journal storage:
// it is valid until the journal cycles past the entry, which cannot happen
// before the caller's immediately following send (the transport copies).
func (j *journal) lookup(seq uint64) ([]byte, bool) {
	c, ok := j.find(seq)
	if !ok {
		return nil, false
	}
	return j.slots[j.index[c]-1].buf, true
}

// record stores a copy of the response frame for seq, evicting the oldest
// entry at capacity. Recording an already-present seq is a no-op (the first
// execution's response stands).
func (j *journal) record(seq uint64, frame []byte) {
	c, dup := j.find(seq)
	if dup {
		return
	}
	s := &j.slots[j.next]
	if j.live == len(j.slots) {
		old, _ := j.find(s.seq)
		j.unindex(old)
		j.evicts++
		// The shift may have emptied a cell earlier on seq's probe chain.
		c, _ = j.find(seq)
	} else {
		j.live++
	}
	s.seq = seq
	s.buf = append(s.buf[:0], frame...)
	j.index[c] = int32(j.next + 1)
	j.next++
	if j.next == len(j.slots) {
		j.next = 0
	}
}

// stats returns (evictions, live entries).
func (j *journal) stats() (evicts int64, live int) {
	return j.evicts, j.live
}
