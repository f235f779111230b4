package remoting

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Shard handoff: when a fleet shard drains (or dies), its exactly-once
// state — the sequence journal mapping executed commands to their response
// frames — must move to the shard inheriting its clients, or a client
// retrying an in-flight call after re-route would re-execute it. The
// Handoff frame is that transfer's wire format. Sequence numbers are
// shard-tagged (Lib.SetShardTag), so merged journals from different shards
// can never collide on a key.

// JournalEntry is one journaled (sequence, response frame) pair, exported
// in execution (FIFO) order.
type JournalEntry struct {
	Seq   uint64
	Frame []byte
}

// Handoff is the migration payload shipped from a draining shard to its
// successor: the source journal plus the shard ordinals for attribution.
type Handoff struct {
	SrcShard uint32
	DstShard uint32
	Entries  []JournalEntry
}

// handoffMagic leads a handoff frame (0xC2 leads commands, 0xE1
// responses, 0xB8 batches).
const handoffMagic = 0xD7

// maxHandoffEntries bounds a decodable handoff well above any journal
// capacity in use; a larger count indicates a corrupt frame.
const maxHandoffEntries = 1 << 16

// MarshalHandoff encodes h into a CRC-sealed wire frame.
func MarshalHandoff(h *Handoff) ([]byte, error) {
	if len(h.Entries) > maxHandoffEntries {
		return nil, fmt.Errorf("remoting: handoff exceeds wire limits (%d entries)", len(h.Entries))
	}
	n := 1 + 4 + 4 + 4 + crcLen
	for _, e := range h.Entries {
		n += 8 + 4 + len(e.Frame)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, handoffMagic)
	buf = binary.LittleEndian.AppendUint32(buf, h.SrcShard)
	buf = binary.LittleEndian.AppendUint32(buf, h.DstShard)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(h.Entries)))
	for _, e := range h.Entries {
		if len(e.Frame) > maxBlob {
			return nil, fmt.Errorf("remoting: handoff entry seq=%d exceeds wire limits (%d bytes)", e.Seq, len(e.Frame))
		}
		buf = binary.LittleEndian.AppendUint64(buf, e.Seq)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Frame)))
		buf = append(buf, e.Frame...)
	}
	return seal(buf, 0), nil
}

// UnmarshalHandoff decodes a wire frame produced by MarshalHandoff,
// verifying the CRC trailer and exact framing like DecodeCommandInto: a
// flipped bit anywhere is rejected, never merged into a journal.
func UnmarshalHandoff(frame []byte) (*Handoff, error) {
	body, err := openFrame(frame)
	if err != nil {
		return nil, err
	}
	r := reader{buf: body}
	if r.u8() != handoffMagic {
		r.fail()
	}
	h := &Handoff{SrcShard: r.u32(), DstShard: r.u32()}
	count := r.u32()
	if count > maxHandoffEntries {
		r.fail()
	}
	for i := uint32(0); i < count && !r.bad; i++ {
		e := JournalEntry{Seq: r.u64()}
		flen := r.u32()
		if flen > maxBlob {
			r.fail()
		}
		e.Frame = bytes.Clone(r.take(int(flen)))
		h.Entries = append(h.Entries, e)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return h, nil
}

// export snapshots the journal's live entries in FIFO order, walking the
// slot ring from the oldest live entry (the eviction cursor once wrapped).
// Frames are copied: the snapshot must stay intact while the source journal
// keeps recording during a drain.
func (j *journal) export() []JournalEntry {
	out := make([]JournalEntry, 0, j.live)
	n := len(j.slots)
	for k := n - j.live; k < n; k++ {
		s := &j.slots[(j.next+k)%n]
		frame := make([]byte, len(s.buf))
		copy(frame, s.buf)
		out = append(out, JournalEntry{Seq: s.seq, Frame: frame})
	}
	return out
}

// ExportJournal snapshots the daemon's sequence journal for a handoff,
// under the exchange lock. The daemon keeps serving; the fleet quiesces the
// shard first, so no entry is recorded between export and cutover.
func (d *Daemon) ExportJournal() []JournalEntry {
	d.tr.Lock()
	defer d.tr.Unlock()
	return d.journal.export()
}

// ImportJournal merges migrated entries into the daemon's journal under the
// exchange lock, returning how many were absorbed. The journal grows to
// hold its live entries and the imported ones, so the import evicts
// nothing. Present sequences are kept (record is first-writer-wins), which
// cannot happen between distinct shard tags.
func (d *Daemon) ImportJournal(entries []JournalEntry) int {
	d.tr.Lock()
	defer d.tr.Unlock()
	d.journal.reserve(len(entries))
	n := 0
	for _, e := range entries {
		d.journal.record(e.Seq, e.Frame)
		n++
	}
	return n
}
