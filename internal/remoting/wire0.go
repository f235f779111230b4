package remoting

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
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
	if c.TraceID != 0 {
		dst = append(dst, cmdMagicTraced)
	} else {
		dst = append(dst, cmdMagic)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(c.API))
	dst = binary.LittleEndian.AppendUint64(dst, c.Seq)
	if c.TraceID != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, c.TraceID)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(c.Args)))
	for _, a := range c.Args {
		dst = binary.LittleEndian.AppendUint64(dst, a)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(c.Name)))
	dst = append(dst, c.Name...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.Blob)))
	dst = append(dst, c.Blob...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable)), nil
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
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable)), nil
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
	m, err := r.u8()
	if err != nil || (m != cmdMagic && m != cmdMagicTraced) {
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
	var traceID uint64
	if m == cmdMagicTraced {
		if traceID, err = r.u64(); err != nil {
			return err
		}
		if traceID == 0 {
			return ErrShortFrame // traced frames must carry a real ID
		}
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

// DecodeResponseInto decodes a frame produced by AppendResponse into resp,
// verifying the CRC trailer and exact framing like DecodeCommandInto.
// resp's Vals and Blob capacities are reused; the blob bytes are COPIED out
// of the frame (unlike DecodeCommandInto's alias) because lakeLib's stubs
// read response payloads after the call lock is released, by which time a
// borrowed ring view may be recycled.
func DecodeResponseInto(resp *Response, frame []byte) error {
	body, err := openFrame(frame)
	if err != nil {
		return err
	}
	r := reader{buf: body}
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

// AppendBatch appends bt's batch descriptor, for transport in a Command
// blob, to dst and returns the extended slice.
func AppendBatch(dst []byte, bt *Batch) ([]byte, error) {
	if len(bt.Entries) > maxBatchEntries {
		return dst, fmt.Errorf("remoting: batch has %d entries, max %d", len(bt.Entries), maxBatchEntries)
	}
	traced := false
	for _, e := range bt.Entries {
		if e.TraceID != 0 {
			traced = true
			break
		}
	}
	if traced {
		dst = append(dst, tracedBatchMagic)
	} else {
		dst = append(dst, batchMagic)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(bt.Entries)))
	for _, e := range bt.Entries {
		dst = binary.LittleEndian.AppendUint64(dst, e.Seq)
		dst = binary.LittleEndian.AppendUint64(dst, e.InOff)
		dst = binary.LittleEndian.AppendUint64(dst, e.OutOff)
		dst = binary.LittleEndian.AppendUint32(dst, e.Count)
		if traced {
			dst = binary.LittleEndian.AppendUint64(dst, e.TraceID)
		}
	}
	return dst, nil
}

// UnmarshalBatchInto decodes a payload produced by AppendBatch into bt,
// reusing bt.Entries capacity.
func UnmarshalBatchInto(bt *Batch, frame []byte) error {
	r := reader{buf: frame}
	m, err := r.u8()
	if err != nil || (m != batchMagic && m != tracedBatchMagic) {
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
		if m == tracedBatchMagic {
			if e.TraceID, err = r.u64(); err != nil {
				return err
			}
		}
		entries = append(entries, e)
	}
	if r.pos != len(frame) {
		return ErrShortFrame
	}
	bt.Entries = entries
	return nil
}
