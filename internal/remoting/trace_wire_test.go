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

// TestUntracedCommandWireShapeFrozen pins the recorder-disabled guarantee:
// a command with TraceID 0 marshals byte-for-byte to the original cmdMagic
// layout, so old decoders (and old captures) never see the traced magic.
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
		byte(0xC1), uint32(APICuLaunchKernel), uint64(42),
		uint16(3), uint64(7), uint64(1<<40), uint64(3),
		uint16(6), "vecadd",
		uint32(2), []byte{0xde, 0xad},
	))
	if !bytes.Equal(frame, want) {
		t.Fatalf("untraced frame diverged from the frozen layout:\n got %x\nwant %x", frame, want)
	}
}

// TestTracedCommandWireShape pins the traced variant: magic 0xC2, exactly 8
// extra bytes carrying the trace ID between Seq and the arg count, and a
// lossless round trip.
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
	untraced := *cmd
	untraced.TraceID = 0
	plain, err := AppendCommand(nil, &untraced)
	if err != nil {
		t.Fatal(err)
	}
	if frame[0] != 0xC2 {
		t.Fatalf("traced magic = %#x, want 0xC2", frame[0])
	}
	if len(frame) != len(plain)+8 {
		t.Fatalf("traced frame is %d bytes over untraced, want exactly 8", len(frame)-len(plain))
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

	// A traced frame claiming trace ID 0 is malformed: encoders never emit
	// it, so the decoder rejects it rather than aliasing the untraced case.
	zero := sealRef(appendLE(nil,
		byte(0xC2), uint32(APICuMemcpyHtoD), uint64(7), uint64(0),
		uint16(1), uint64(11), uint16(0), uint32(0),
	))
	if err := DecodeCommandInto(&got, names, zero); err == nil {
		t.Fatal("traced frame with zero trace ID was accepted")
	}
}

// TestPeekFrameHeaders covers the recorder's frame peeker: fixed-offset
// header loads for all three magics, graceful refusal otherwise.
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
	for _, bad := range [][]byte{nil, {0x00}, {0x55, 1, 2, 3}, traced[:10]} {
		if _, ok := PeekFrame(bad); ok {
			t.Fatalf("peek accepted junk %x", bad)
		}
	}
}

// TestUntracedBatchWireShapeFrozen pins the batch analogue: all-untraced
// entries marshal to the original batchMagic layout byte-for-byte; one
// traced entry switches the whole batch to the widened layout, which
// round-trips losslessly.
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
		byte(0xB7), uint16(2),
		uint64(1), uint64(100), uint64(200), uint32(4),
		uint64(2), uint64(300), uint64(400), uint32(8),
	)
	if !bytes.Equal(frame, want) {
		t.Fatalf("untraced batch diverged from the frozen layout:\n got %x\nwant %x", frame, want)
	}

	bt.Entries[1].TraceID = 555
	traced, err := AppendBatch(nil, bt)
	if err != nil {
		t.Fatal(err)
	}
	if traced[0] != 0xB8 {
		t.Fatalf("traced batch magic = %#x, want 0xB8", traced[0])
	}
	if len(traced) != len(frame)+8*len(bt.Entries) {
		t.Fatalf("traced batch is %d bytes over untraced, want %d", len(traced)-len(frame), 8*len(bt.Entries))
	}
	var got Batch
	if err := UnmarshalBatchInto(&got, traced); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, bt) {
		t.Fatalf("traced batch round trip: got %+v, want %+v", got, bt)
	}
}
