package remoting

import (
	"encoding/binary"
	"fmt"
)

// The wire codecs. Frames are encoded into and decoded from caller-owned
// storage: Append* extends a reusable buffer, Decode*Into reuses the
// destination's slice capacity. Once the buffers have warmed to their
// steady-state sizes, a remoted call performs no heap allocation in either
// codec direction (pinned by TestAllocs* and the CI allocgate job). The
// byte layouts are pinned by trace_wire_test.go.

// AppendCommand appends c's CRC-sealed wire frame to dst and returns the
// extended slice.
func AppendCommand(dst []byte, c *Command) ([]byte, error) {
	if len(c.Args) > maxArgs || len(c.Name) > maxName || len(c.Blob) > maxBlob {
		return dst, fmt.Errorf("remoting: command exceeds wire limits (args=%d name=%d blob=%d)",
			len(c.Args), len(c.Name), len(c.Blob))
	}
	start := len(dst)
	dst = append(dst, cmdMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(c.API))
	dst = binary.LittleEndian.AppendUint64(dst, c.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, c.TraceID)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(c.Args)))
	for _, a := range c.Args {
		dst = binary.LittleEndian.AppendUint64(dst, a)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(c.Name)))
	dst = append(dst, c.Name...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.Blob)))
	dst = append(dst, c.Blob...)
	return seal(dst, start), nil
}

// AppendResponse appends resp's CRC-sealed wire frame to dst and returns
// the extended slice.
func AppendResponse(dst []byte, resp *Response) ([]byte, error) {
	if len(resp.Vals) > maxArgs || len(resp.Blob) > maxBlob {
		return dst, fmt.Errorf("remoting: response exceeds wire limits")
	}
	start := len(dst)
	dst = append(dst, respMagic)
	dst = binary.LittleEndian.AppendUint64(dst, resp.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(resp.Result))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(resp.Vals)))
	for _, v := range resp.Vals {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(resp.Blob)))
	dst = append(dst, resp.Blob...)
	return seal(dst, start), nil
}

// maxInternedNames bounds lakeD's name intern table. The names crossing the
// wire are a small fixed vocabulary — model names, kernel symbols, client
// tags — so the table saturates within the first few calls per name; past
// the bound a fresh string is returned (one allocation, pathological input
// only) rather than growing without limit.
const maxInternedNames = 256

// internName resolves b to a stable string through the intern table,
// allocating only the first time a name is seen. The map lookup keyed by
// string(b) does not allocate (the compiler elides the conversion).
func internName(names map[string]string, b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(names) < maxInternedNames {
		names[s] = s
	}
	return s
}

// DecodeCommandInto decodes a frame produced by AppendCommand into c. The
// frame's CRC trailer must verify and every byte must be accounted for: a
// flipped bit anywhere is rejected, never executed. c's Args capacity is
// reused; Name is resolved through the names intern table; Blob ALIASES
// frame — valid only as long as the frame view is, which means until the
// next RecvInUser. lakeD decodes and fully executes a command before its
// next pump, so the alias never outlives the view.
func DecodeCommandInto(c *Command, names map[string]string, frame []byte) error {
	body, err := openFrame(frame)
	if err != nil {
		return err
	}
	r := reader{buf: body}
	if r.u8() != cmdMagic {
		r.fail()
	}
	api := APIID(r.u32())
	seq := r.u64()
	traceID := r.u64()
	nargs := r.u16()
	if nargs > maxArgs {
		r.fail()
	}
	args := c.Args[:0]
	for i := 0; i < nargs && !r.bad; i++ {
		args = append(args, r.u64())
	}
	nameLen := r.u16()
	if nameLen > maxName {
		r.fail()
	}
	name := r.take(nameLen)
	blobLen := r.u32()
	if blobLen > maxBlob {
		r.fail()
	}
	blob := r.take(int(blobLen))
	if err := r.done(); err != nil {
		return err
	}
	c.API, c.Seq, c.TraceID = api, seq, traceID
	c.Args = args
	c.Name = internName(names, name)
	c.Blob = blob
	return nil
}

// DecodeResponseInto decodes a frame produced by AppendResponse into resp,
// verifying the CRC trailer and exact framing like DecodeCommandInto.
// resp's Vals and Blob capacities are reused; the blob bytes are COPIED out
// of the frame (unlike DecodeCommandInto's alias), so a decoded response
// never aliases a ring slot that the next receive recycles.
func DecodeResponseInto(resp *Response, frame []byte) error {
	body, err := openFrame(frame)
	if err != nil {
		return err
	}
	r := reader{buf: body}
	if r.u8() != respMagic {
		r.fail()
	}
	seq := r.u64()
	res := int32(r.u32())
	nvals := r.u16()
	if nvals > maxArgs {
		r.fail()
	}
	vals := resp.Vals[:0]
	for i := 0; i < nvals && !r.bad; i++ {
		vals = append(vals, r.u64())
	}
	blobLen := r.u32()
	if blobLen > maxBlob {
		r.fail()
	}
	blob := r.take(int(blobLen))
	if err := r.done(); err != nil {
		return err
	}
	resp.Seq, resp.Result = seq, res
	resp.Vals = vals
	resp.Blob = append(resp.Blob[:0], blob...)
	return nil
}

// AppendBatch appends bt's batch descriptor, for transport in a Command
// blob, to dst and returns the extended slice.
func AppendBatch(dst []byte, bt *Batch) ([]byte, error) {
	if len(bt.Entries) > maxBatchEntries {
		return dst, fmt.Errorf("remoting: batch has %d entries, max %d", len(bt.Entries), maxBatchEntries)
	}
	dst = append(dst, batchMagic)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(bt.Entries)))
	for _, e := range bt.Entries {
		dst = binary.LittleEndian.AppendUint64(dst, e.Seq)
		dst = binary.LittleEndian.AppendUint64(dst, e.InOff)
		dst = binary.LittleEndian.AppendUint64(dst, e.OutOff)
		dst = binary.LittleEndian.AppendUint32(dst, e.Count)
		dst = binary.LittleEndian.AppendUint64(dst, e.TraceID)
	}
	return dst, nil
}

// UnmarshalBatchInto decodes a payload produced by AppendBatch into bt,
// reusing bt.Entries capacity.
func UnmarshalBatchInto(bt *Batch, frame []byte) error {
	r := reader{buf: frame}
	if r.u8() != batchMagic {
		r.fail()
	}
	n := r.u16()
	if n > maxBatchEntries {
		r.fail()
	}
	entries := bt.Entries[:0]
	for i := 0; i < n && !r.bad; i++ {
		entries = append(entries, BatchEntry{Seq: r.u64(), InOff: r.u64(), OutOff: r.u64(),
			Count: r.u32(), TraceID: r.u64()})
	}
	if err := r.done(); err != nil {
		return err
	}
	bt.Entries = entries
	return nil
}
