package remoting

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
)

// appendLE builds reference frames for the byte-identity tests below with
// the documented little-endian layout, independent of the encoder under
// test.
func appendLE(buf []byte, fields ...any) []byte {
	for _, f := range fields {
		switch v := f.(type) {
		case byte:
			buf = append(buf, v)
		case uint16:
			buf = binary.LittleEndian.AppendUint16(buf, v)
		case uint32:
			buf = binary.LittleEndian.AppendUint32(buf, v)
		case uint64:
			buf = binary.LittleEndian.AppendUint64(buf, v)
		case string:
			buf = append(buf, v...)
		case []byte:
			buf = append(buf, v...)
		default:
			panic("appendLE: unsupported field")
		}
	}
	return buf
}

func sealRef(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body,
		crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
}

// TestUntracedCommandWireShapeFrozen pins the untraced command: the one
// command layout with a zero trace word, which round-trips to TraceID 0.
// The retired untraced layout (magic 0xC1, no trace word) is rejected.
func TestUntracedCommandWireShapeFrozen(t *testing.T) {
	cmd := &Command{
		API:  APICuLaunchKernel,
		Seq:  42,
		Args: []uint64{7, 1 << 40, 3},
		Name: "vecadd",
		Blob: []byte{0xde, 0xad},
	}
	frame, err := AppendCommand(nil, cmd)
	if err != nil {
		t.Fatal(err)
	}
	want := sealRef(appendLE(nil,
		byte(0xC2), uint32(APICuLaunchKernel), uint64(42), uint64(0),
		uint16(3), uint64(7), uint64(1<<40), uint64(3),
		uint16(6), "vecadd",
		uint32(2), []byte{0xde, 0xad},
	))
	if !bytes.Equal(frame, want) {
		t.Fatalf("untraced frame diverged from the documented layout:\n got %x\nwant %x", frame, want)
	}
	var got Command
	if err := DecodeCommandInto(&got, map[string]string{}, frame); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, cmd) {
		t.Fatalf("untraced round trip: got %+v, want %+v", got, cmd)
	}

	retired := sealRef(appendLE(nil,
		byte(0xC1), uint32(APICuLaunchKernel), uint64(42),
		uint16(3), uint64(7), uint64(1<<40), uint64(3),
		uint16(6), "vecadd",
		uint32(2), []byte{0xde, 0xad},
	))
	if err := DecodeCommandInto(&got, map[string]string{}, retired); err == nil {
		t.Fatal("retired 0xC1 command layout was accepted")
	}
	// Nor does 0xC1 lead the current layout.
	relabeled := sealRef(append([]byte{0xC1}, want[1:len(want)-4]...))
	if err := DecodeCommandInto(&got, map[string]string{}, relabeled); err == nil {
		t.Fatal("0xC1 magic over the current command layout was accepted")
	}
	if fi, ok := PeekFrame(retired); ok {
		t.Fatalf("peek accepted the retired 0xC1 layout: %+v", fi)
	}
}

// TestTracedCommandWireShape pins the command layout: magic 0xC2 and the
// trace ID between Seq and the arg count, with a lossless round trip. The
// trace ID only fills the trace word: an untraced command is the same
// frame with that word zeroed (and its own CRC).
func TestTracedCommandWireShape(t *testing.T) {
	cmd := &Command{
		API:     APICuMemcpyHtoD,
		Seq:     7,
		TraceID: 0xFEEDFACE,
		Args:    []uint64{11},
		Name:    "",
		Blob:    nil,
	}
	frame, err := AppendCommand(nil, cmd)
	if err != nil {
		t.Fatal(err)
	}
	want := sealRef(appendLE(nil,
		byte(0xC2), uint32(APICuMemcpyHtoD), uint64(7), uint64(0xFEEDFACE),
		uint16(1), uint64(11),
		uint16(0),
		uint32(0),
	))
	if !bytes.Equal(frame, want) {
		t.Fatalf("traced frame diverged from the documented layout:\n got %x\nwant %x", frame, want)
	}
	names := map[string]string{}
	var got Command
	if err := DecodeCommandInto(&got, names, frame); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, cmd) {
		t.Fatalf("traced round trip: got %+v, want %+v", got, cmd)
	}

	untraced := *cmd
	untraced.TraceID = 0
	plain, err := AppendCommand(nil, &untraced)
	if err != nil {
		t.Fatal(err)
	}
	zero := sealRef(appendLE(nil,
		byte(0xC2), uint32(APICuMemcpyHtoD), uint64(7), uint64(0),
		uint16(1), uint64(11), uint16(0), uint32(0),
	))
	if !bytes.Equal(plain, zero) {
		t.Fatalf("untraced frame is not the traced one with a zero trace word:\n got %x\nwant %x", plain, zero)
	}
	if err := DecodeCommandInto(&got, names, zero); err != nil || !reflect.DeepEqual(&got, &untraced) {
		t.Fatalf("zero trace word decoded to %+v, %v; want %+v", got, err, untraced)
	}
}

// TestPeekFrameHeaders covers the recorder's frame peeker: header loads for
// commands with and without a trace ID and for responses, graceful refusal
// otherwise, including a header cut one byte short under each magic and
// the retired 0xC1 command magic.
func TestPeekFrameHeaders(t *testing.T) {
	cmd := &Command{API: APICuInit, Seq: 9}
	plain, _ := AppendCommand(nil, cmd)
	cmd.TraceID = 77
	traced, _ := AppendCommand(nil, cmd)
	resp, _ := AppendResponse(nil, &Response{Seq: 11, Result: 0})

	if fi, ok := PeekFrame(plain); !ok || fi.Seq != 9 || fi.TraceID != 0 {
		t.Fatalf("peek untraced = %+v ok=%v", fi, ok)
	}
	if fi, ok := PeekFrame(traced); !ok || fi.Seq != 9 || fi.TraceID != 77 {
		t.Fatalf("peek traced = %+v ok=%v", fi, ok)
	}
	if fi, ok := PeekFrame(resp); !ok || fi.Seq != 11 || fi.TraceID != 0 {
		t.Fatalf("peek response = %+v ok=%v", fi, ok)
	}
	retired := append([]byte{0xC1}, plain[1:]...)
	for _, bad := range [][]byte{nil, {0x00}, {0x55, 1, 2, 3}, traced[:10], plain[:12], plain[:20], traced[:20], resp[:8], retired} {
		if _, ok := PeekFrame(bad); ok {
			t.Fatalf("peek accepted junk %x", bad)
		}
	}
}

// TestUntracedBatchWireShapeFrozen pins the batch layout: magic 0xB8 and a
// trace word in every entry, 0 for an untraced one, whether or not any
// entry is traced. A batch with one traced entry keeps the bytes it has
// always had, and the retired untraced layout (magic 0xB7, no trace words)
// is rejected.
func TestUntracedBatchWireShapeFrozen(t *testing.T) {
	bt := &Batch{Entries: []BatchEntry{
		{Seq: 1, InOff: 100, OutOff: 200, Count: 4},
		{Seq: 2, InOff: 300, OutOff: 400, Count: 8},
	}}
	frame, err := AppendBatch(nil, bt)
	if err != nil {
		t.Fatal(err)
	}
	want := appendLE(nil,
		byte(0xB8), uint16(2),
		uint64(1), uint64(100), uint64(200), uint32(4), uint64(0),
		uint64(2), uint64(300), uint64(400), uint32(8), uint64(0),
	)
	if !bytes.Equal(frame, want) {
		t.Fatalf("untraced batch diverged from the documented layout:\n got %x\nwant %x", frame, want)
	}

	bt.Entries[1].TraceID = 555
	traced, err := AppendBatch(nil, bt)
	if err != nil {
		t.Fatal(err)
	}
	want = appendLE(nil,
		byte(0xB8), uint16(2),
		uint64(1), uint64(100), uint64(200), uint32(4), uint64(0),
		uint64(2), uint64(300), uint64(400), uint32(8), uint64(555),
	)
	if !bytes.Equal(traced, want) {
		t.Fatalf("traced batch diverged from the documented layout:\n got %x\nwant %x", traced, want)
	}
	var got Batch
	if err := UnmarshalBatchInto(&got, traced); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, bt) {
		t.Fatalf("traced batch round trip: got %+v, want %+v", got, bt)
	}

	retired := appendLE(nil,
		byte(0xB7), uint16(2),
		uint64(1), uint64(100), uint64(200), uint32(4),
		uint64(2), uint64(300), uint64(400), uint32(8),
	)
	if err := UnmarshalBatchInto(&got, retired); err == nil {
		t.Fatal("retired 0xB7 batch layout was accepted")
	}
	if err := UnmarshalBatchInto(&got, append([]byte{0xB7}, traced[1:]...)); err == nil {
		t.Fatal("0xB7 magic over the current batch layout was accepted")
	}
}
