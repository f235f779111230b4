package remoting

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"lakego/internal/flightrec"
)

// The reference codec below is the frame decoding that preceded the
// latching reader, kept verbatim apart from the ref prefix on each name
// and the move to one layout per frame kind (the command and batch trace
// words are always present): a hand-rolled trailer check, a fixed-offset
// header peeker and four decoders that return on the first failed field.
// FuzzWireDifferential holds the live decoders to it.

// refOpenFrame verifies and strips the integrity trailer, returning the frame
// body. Truncated or corrupted frames yield ErrShortFrame.
func refOpenFrame(frame []byte) ([]byte, error) {
	if len(frame) < crcLen+1 {
		return nil, ErrShortFrame
	}
	body := frame[:len(frame)-crcLen]
	want := binary.LittleEndian.Uint32(frame[len(frame)-crcLen:])
	if crc32.Checksum(body, crcTable) != want {
		return nil, ErrShortFrame
	}
	return body, nil
}

// refPeekFrame reads a wire frame's identifying header — sequence number and
// trace ID — without decoding or CRC-verifying the body.
// It is the flight recorder's frame peeker: the boundary channel tags its
// send/receive events with it at a few fixed-offset loads per frame. ok is
// false for frames too short or not starting with a known magic; a frame
// corrupted elsewhere simply yields the (possibly garbled) header values,
// which is fine for a diagnostic event stream.
func refPeekFrame(frame []byte) (flightrec.FrameInfo, bool) {
	if len(frame) < 1 {
		return flightrec.FrameInfo{}, false
	}
	switch frame[0] {
	case respMagic: // magic | seq u64 | ...
		if len(frame) < 9 {
			return flightrec.FrameInfo{}, false
		}
		return flightrec.FrameInfo{Seq: binary.LittleEndian.Uint64(frame[1:9])}, true
	case cmdMagic: // magic | api u32 | seq u64 | trace u64 | ...
		if len(frame) < 21 {
			return flightrec.FrameInfo{}, false
		}
		return flightrec.FrameInfo{Seq: binary.LittleEndian.Uint64(frame[5:13]),
			TraceID: binary.LittleEndian.Uint64(frame[13:21])}, true
	}
	return flightrec.FrameInfo{}, false
}

type refReader struct {
	buf []byte
	pos int
}

func (r *refReader) need(n int) error {
	if r.pos+n > len(r.buf) {
		return ErrShortFrame
	}
	return nil
}

func (r *refReader) u8() (byte, error) {
	if err := r.need(1); err != nil {
		return 0, err
	}
	v := r.buf[r.pos]
	r.pos++
	return v, nil
}

func (r *refReader) u16() (int, error) {
	if err := r.need(2); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint16(r.buf[r.pos:])
	r.pos += 2
	return int(v), nil
}

func (r *refReader) u32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *refReader) u64() (uint64, error) {
	if err := r.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v, nil
}

// refDecodeCommandInto decodes a frame produced by AppendCommand into c. The
// frame's CRC trailer must verify and every byte must be accounted for: a
// flipped bit anywhere is rejected, never executed. c's Args capacity is
// reused; Name is resolved through the names intern table; Blob ALIASES
// frame — valid only as long as the frame view is, which means until the
// next RecvInUser. lakeD decodes and fully executes a command before its
// next pump, so the alias never outlives the view.
func refDecodeCommandInto(c *Command, names map[string]string, frame []byte) error {
	body, err := refOpenFrame(frame)
	if err != nil {
		return err
	}
	r := refReader{buf: body}
	m, err := r.u8()
	if err != nil || m != cmdMagic {
		return ErrShortFrame
	}
	api, err := r.u32()
	if err != nil {
		return err
	}
	seq, err := r.u64()
	if err != nil {
		return err
	}
	traceID, err := r.u64()
	if err != nil {
		return err
	}
	nargs, err := r.u16()
	if err != nil {
		return err
	}
	if nargs > maxArgs {
		return ErrShortFrame
	}
	args := c.Args[:0]
	for i := 0; i < nargs; i++ {
		a, err := r.u64()
		if err != nil {
			return err
		}
		args = append(args, a)
	}
	nameLen, err := r.u16()
	if err != nil {
		return err
	}
	if nameLen > maxName {
		return ErrShortFrame
	}
	if err := r.need(nameLen); err != nil {
		return err
	}
	nameBytes := r.buf[r.pos : r.pos+nameLen]
	r.pos += nameLen
	blobLen, err := r.u32()
	if err != nil {
		return err
	}
	if blobLen > maxBlob || blobLen > math.MaxInt32 {
		return ErrShortFrame
	}
	if err := r.need(int(blobLen)); err != nil {
		return err
	}
	var blob []byte
	if blobLen > 0 {
		blob = r.buf[r.pos : r.pos+int(blobLen)]
	}
	r.pos += int(blobLen)
	if r.pos != len(body) {
		return ErrShortFrame
	}
	c.API = APIID(api)
	c.Seq = seq
	c.TraceID = traceID
	c.Args = args
	c.Name = internName(names, nameBytes)
	c.Blob = blob
	return nil
}

// refDecodeResponseInto decodes a frame produced by AppendResponse into resp,
// verifying the CRC trailer and exact framing like refDecodeCommandInto.
// resp's Vals and Blob capacities are reused; the blob bytes are COPIED out
// of the frame (unlike refDecodeCommandInto's alias) because lakeLib's stubs
// read response payloads after the call lock is released, by which time a
// borrowed ring view may be recycled.
func refDecodeResponseInto(resp *Response, frame []byte) error {
	body, err := refOpenFrame(frame)
	if err != nil {
		return err
	}
	r := refReader{buf: body}
	if m, err := r.u8(); err != nil || m != respMagic {
		return ErrShortFrame
	}
	seq, err := r.u64()
	if err != nil {
		return err
	}
	res, err := r.u32()
	if err != nil {
		return err
	}
	nvals, err := r.u16()
	if err != nil {
		return err
	}
	if nvals > maxArgs {
		return ErrShortFrame
	}
	vals := resp.Vals[:0]
	for i := 0; i < nvals; i++ {
		v, err := r.u64()
		if err != nil {
			return err
		}
		vals = append(vals, v)
	}
	blobLen, err := r.u32()
	if err != nil {
		return err
	}
	if blobLen > maxBlob || blobLen > math.MaxInt32 {
		return ErrShortFrame
	}
	if err := r.need(int(blobLen)); err != nil {
		return err
	}
	blob := append(resp.Blob[:0], r.buf[r.pos:r.pos+int(blobLen)]...)
	r.pos += int(blobLen)
	if r.pos != len(body) {
		return ErrShortFrame
	}
	resp.Seq = seq
	resp.Result = int32(res)
	resp.Vals = vals
	resp.Blob = blob
	return nil
}

// refUnmarshalBatchInto decodes a payload produced by AppendBatch into bt,
// reusing bt.Entries capacity.
func refUnmarshalBatchInto(bt *Batch, frame []byte) error {
	r := refReader{buf: frame}
	m, err := r.u8()
	if err != nil || m != batchMagic {
		return ErrShortFrame
	}
	n, err := r.u16()
	if err != nil {
		return err
	}
	if n > maxBatchEntries {
		return ErrShortFrame
	}
	entries := bt.Entries[:0]
	for i := 0; i < n; i++ {
		var e BatchEntry
		if e.Seq, err = r.u64(); err != nil {
			return err
		}
		if e.InOff, err = r.u64(); err != nil {
			return err
		}
		if e.OutOff, err = r.u64(); err != nil {
			return err
		}
		c, err := r.u32()
		if err != nil {
			return err
		}
		e.Count = c
		if e.TraceID, err = r.u64(); err != nil {
			return err
		}
		entries = append(entries, e)
	}
	if r.pos != len(frame) {
		return ErrShortFrame
	}
	bt.Entries = entries
	return nil
}

// refUnmarshalHandoff decodes a wire frame produced by MarshalHandoff,
// verifying the CRC trailer and exact framing like refDecodeCommandInto: a
// flipped bit anywhere is rejected, never merged into a journal.
func refUnmarshalHandoff(frame []byte) (*Handoff, error) {
	body, err := refOpenFrame(frame)
	if err != nil {
		return nil, err
	}
	r := refReader{buf: body}
	if m, err := r.u8(); err != nil || m != handoffMagic {
		return nil, ErrShortFrame
	}
	h := new(Handoff)
	if h.SrcShard, err = r.u32(); err != nil {
		return nil, err
	}
	if h.DstShard, err = r.u32(); err != nil {
		return nil, err
	}
	count, err := r.u32()
	if err != nil {
		return nil, err
	}
	if count > maxHandoffEntries {
		return nil, ErrShortFrame
	}
	for i := uint32(0); i < count; i++ {
		var e JournalEntry
		if e.Seq, err = r.u64(); err != nil {
			return nil, err
		}
		flen, err := r.u32()
		if err != nil {
			return nil, err
		}
		if flen > maxBlob {
			return nil, ErrShortFrame
		}
		if err := r.need(int(flen)); err != nil {
			return nil, err
		}
		if flen > 0 {
			e.Frame = make([]byte, flen)
			copy(e.Frame, r.buf[r.pos:])
			r.pos += int(flen)
		}
		h.Entries = append(h.Entries, e)
	}
	if r.pos != len(body) {
		return nil, ErrShortFrame
	}
	return h, nil
}

// FuzzWireDifferential runs every frame decoder and PeekFrame against its
// reference above on the same bytes, once raw and once resealed with a
// valid CRC trailer so that mutated bodies get past openFrame. Both must
// accept or both reject with the same error, and an accepted frame must
// decode to deeply equal values, nil-versus-empty slices included. The
// destinations are reused across the two inputs, as lakeD and lakeLib
// reuse theirs, and the intern tables must end up equal too.
func FuzzWireDifferential(f *testing.F) {
	cmd, _ := AppendCommand(nil, &Command{API: APICuLaunchKernel, Seq: 9,
		Args: []uint64{1, 2, 3}, Name: "vecadd", Blob: []byte{1, 2}})
	traced, _ := AppendCommand(nil, &Command{API: APIHighLevel, Seq: 10, TraceID: 1, Name: "infer"})
	resp, _ := AppendResponse(nil, &Response{Seq: 1, Result: -2, Vals: []uint64{3}, Blob: []byte{4}})
	bt, _ := AppendBatch(nil, &Batch{Entries: []BatchEntry{
		{Seq: 1, OutOff: 128, Count: 4, TraceID: 5}, {Seq: 2, InOff: 64, Count: 1}}})
	h, _ := MarshalHandoff(&Handoff{SrcShard: 1, DstShard: 2,
		Entries: []JournalEntry{{Seq: 7, Frame: resp}, {Seq: 9}}})
	for _, frame := range [][]byte{cmd, traced, resp, h} {
		f.Add(frame)
		f.Add(frame[:len(frame)-crcLen]) // the body, which resealing restores
	}
	for _, seed := range [][]byte{bt, nil, {cmdMagic}, {respMagic}, {handoffMagic}} {
		f.Add(seed)
	}
	// The retired 0xC1/0xB7 magics over the current layouts.
	f.Add(append([]byte{0xC1}, cmd[1:len(cmd)-crcLen]...))
	f.Add(append([]byte{0xB7}, bt[1:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var c1, c2 Command
		var r1, r2 Response
		var b1, b2 Batch
		n1, n2 := map[string]string{}, map[string]string{}
		agree := func(kind string, in []byte, err1, err2 error, got, want any) {
			t.Helper()
			if err1 != err2 {
				t.Fatalf("%s %x: err %v, reference %v", kind, in, err1, err2)
			}
			if err1 == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %x: decoded %+v, reference %+v", kind, in, got, want)
			}
		}
		for _, in := range [][]byte{data, seal(bytes.Clone(data), 0)} {
			agree("command", in, DecodeCommandInto(&c1, n1, in), refDecodeCommandInto(&c2, n2, in), &c1, &c2)
			agree("response", in, DecodeResponseInto(&r1, in), refDecodeResponseInto(&r2, in), &r1, &r2)
			agree("batch", in, UnmarshalBatchInto(&b1, in), refUnmarshalBatchInto(&b2, in), &b1, &b2)
			h1, err1 := UnmarshalHandoff(in)
			h2, err2 := refUnmarshalHandoff(in)
			agree("handoff", in, err1, err2, h1, h2)
			fi1, ok1 := PeekFrame(in)
			fi2, ok2 := refPeekFrame(in)
			if fi1 != fi2 || ok1 != ok2 {
				t.Fatalf("peek %x: %+v %v, reference %+v %v", in, fi1, ok1, fi2, ok2)
			}
		}
		if !reflect.DeepEqual(n1, n2) {
			t.Fatalf("intern tables differ: %v, reference %v", n1, n2)
		}
	})
}
