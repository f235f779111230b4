// Package remoting implements LAKE's API remoting system: the wire protocol
// between kernel and user space, the kernel-side stub library (lakeLib) and
// the user-space daemon that realizes APIs (lakeD).
//
// §4 of the paper: "lakeLib is a kernel module that exposes APIs such as the
// vendor's user space library of an accelerator as symbols to kernel space
// ... Each of these functions does three things: serialize an API identifier
// and all of API parameters into a command, transmit commands through some
// communication channel for remote execution in user space and, finally,
// wait for a response." That is exactly the structure here: every stub in
// Lib marshals a Command, ships the real bytes over a boundary.Channel,
// lakeD deserializes and executes against the CUDA API, and the response
// travels back the same way. The paper's implementation resembles "an RPC
// system" (§6); so does this one, deliberately.
package remoting

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"lakego/internal/flightrec"
)

// APIID identifies a remoted API in command headers.
type APIID uint32

// The remoted API surface: the CUDA driver subset the prototype exposes
// (§6: "The LAKE API remoting system provides kernel space with the CUDA
// driver API version 11.0") plus the escape hatch for custom high-level
// APIs such as the TensorFlow-backed calls of §4.4.
const (
	APIInvalid APIID = iota
	APICuInit
	APICuDeviceGetCount
	APICuDeviceGetName
	APICuCtxCreate
	APICuCtxDestroy
	APICuMemAlloc
	APICuMemFree
	APICuMemcpyHtoD
	APICuMemcpyDtoH
	APICuModuleLoad
	APICuModuleGetFunction
	APICuLaunchKernel
	APICuCtxSynchronize
	APINvmlUtilization
	APIHighLevel
	// Ids 16–21 carried the stream/async APIs; they stay reserved so later
	// ids keep their wire values in recorded dumps and journals. lakeD
	// answers a reserved id like any unknown one, with ErrInvalidValue.
	_
	_
	_
	_
	_
	_
	APICuMemGetInfo
	APIBatchedInfer
	// APIPing is the supervisor's health probe: lakeD answers with its
	// restart generation and handled-command count. It exercises the full
	// wire path, so a dead daemon or broken channel fails it like any call.
	APIPing
	// APINvmlDeviceUtilization queries one pool device's utilization by
	// ordinal (APINvmlUtilization aggregates across the pool).
	APINvmlDeviceUtilization
)

var apiNames = map[APIID]string{
	APICuInit:              "cuInit",
	APICuDeviceGetCount:    "cuDeviceGetCount",
	APICuDeviceGetName:     "cuDeviceGetName",
	APICuCtxCreate:         "cuCtxCreate",
	APICuCtxDestroy:        "cuCtxDestroy",
	APICuMemAlloc:          "cuMemAlloc",
	APICuMemFree:           "cuMemFree",
	APICuMemcpyHtoD:        "cuMemcpyHtoD",
	APICuMemcpyDtoH:        "cuMemcpyDtoH",
	APICuModuleLoad:        "cuModuleLoad",
	APICuModuleGetFunction: "cuModuleGetFunction",
	APICuLaunchKernel:      "cuLaunchKernel",
	APICuCtxSynchronize:    "cuCtxSynchronize",
	APINvmlUtilization:     "nvmlDeviceGetUtilizationRates",
	APIHighLevel:           "lakeHighLevel",
	APICuMemGetInfo:        "cuMemGetInfo",
	APIBatchedInfer:        "lakeBatchedInfer",
	APIPing:                "lakePing",

	APINvmlDeviceUtilization: "nvmlDeviceGetUtilizationRates(device)",
}

func (id APIID) String() string {
	if s, ok := apiNames[id]; ok {
		return s
	}
	return fmt.Sprintf("api(%d)", uint32(id))
}

// Command is one serialized kernel->user API invocation.
type Command struct {
	// API selects the handler in lakeD.
	API APIID
	// Seq matches responses to commands.
	Seq uint64
	// TraceID is the flight recorder's cross-boundary correlation key,
	// optional on the wire following the PR-4 ordinal-arg precedent: zero
	// marshals to the original cmdMagic frame byte-for-byte, nonzero
	// switches the header to cmdMagicTraced and inserts the ID after Seq.
	// Old decoders never see the new magic unless a trace ID is in play.
	TraceID uint64
	// Args carries scalar parameters: handles, device pointers, sizes,
	// shm offsets.
	Args []uint64
	// Name carries symbol or module names, and selects the handler for
	// APIHighLevel commands.
	Name string
	// Blob carries inline payload for callers that bypass lakeShm (the
	// double-copy path §4.1 warns about).
	Blob []byte
}

// Response is one serialized user->kernel API completion.
type Response struct {
	Seq    uint64
	Result int32
	Vals   []uint64
	Blob   []byte
}

// Wire format limits; commands beyond these indicate a corrupted frame.
const (
	maxArgs = 1 << 12
	maxName = 1 << 10
	maxBlob = 64 << 20
)

// ErrShortFrame reports a truncated or corrupt wire frame.
var ErrShortFrame = errors.New("remoting: short or corrupt frame")

const (
	cmdMagic = 0xC1
	// cmdMagicTraced marks a command frame carrying a trace ID: the layout
	// of cmdMagic with 8 extra little-endian bytes between Seq and the arg
	// count. Emitted only when Command.TraceID != 0, so untraced runs stay
	// byte-identical to the original wire shape.
	cmdMagicTraced = 0xC2
	respMagic      = 0xE1
)

// Every frame ends with a CRC32-C of the preceding bytes. A corrupted
// channel (the fault plane's bit flips, or a real DMA/socket fault) must be
// detected at the decoder, never executed: an undetected flip inside Args
// would silently run the wrong command against the device.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

const crcLen = 4

// openFrame verifies and strips the integrity trailer, returning the frame
// body. Truncated or corrupted frames yield ErrShortFrame.
func openFrame(frame []byte) ([]byte, error) {
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

// PeekFrame reads a wire frame's identifying header — sequence number and
// trace ID — without decoding or CRC-verifying the body.
// It is the flight recorder's frame peeker: the boundary channel tags its
// send/receive events with it at a few fixed-offset loads per frame. ok is
// false for frames too short or not starting with a known magic; a frame
// corrupted elsewhere simply yields the (possibly garbled) header values,
// which is fine for a diagnostic event stream.
func PeekFrame(frame []byte) (flightrec.FrameInfo, bool) {
	if len(frame) < 1 {
		return flightrec.FrameInfo{}, false
	}
	switch frame[0] {
	case respMagic: // magic | seq u64 | ...
		if len(frame) < 9 {
			return flightrec.FrameInfo{}, false
		}
		return flightrec.FrameInfo{Seq: binary.LittleEndian.Uint64(frame[1:9])}, true
	case cmdMagic: // magic | api u32 | seq u64 | ...
		if len(frame) < 13 {
			return flightrec.FrameInfo{}, false
		}
		return flightrec.FrameInfo{Seq: binary.LittleEndian.Uint64(frame[5:13])}, true
	case cmdMagicTraced: // magic | api u32 | seq u64 | trace u64 | ...
		if len(frame) < 21 {
			return flightrec.FrameInfo{}, false
		}
		return flightrec.FrameInfo{Seq: binary.LittleEndian.Uint64(frame[5:13]),
			TraceID: binary.LittleEndian.Uint64(frame[13:21])}, true
	}
	return flightrec.FrameInfo{}, false
}

type reader struct {
	buf []byte
	pos int
}

func (r *reader) need(n int) error {
	if r.pos+n > len(r.buf) {
		return ErrShortFrame
	}
	return nil
}

func (r *reader) u8() (byte, error) {
	if err := r.need(1); err != nil {
		return 0, err
	}
	v := r.buf[r.pos]
	r.pos++
	return v, nil
}

func (r *reader) u16() (int, error) {
	if err := r.need(2); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint16(r.buf[r.pos:])
	r.pos += 2
	return int(v), nil
}

func (r *reader) u32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if err := r.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v, nil
}
