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
//
// Which lock guards what: the boundary.Channel's Locker, one exchange lock
// per lakeLib↔lakeD pair, held by a remoted call from newCall to done, owns
// the call state, the retry PRNG, both rings and lakeD's pump scratch and
// journal (ExportJournal and ImportJournal take it too). State that only
// construction, a fault or the supervisor writes is an atomic word: the
// lib's dead latch and the daemon's crash latch, pending crash and restart
// generation. Daemon.mu guards only the handler table and the error log.
//
// One reader decodes every frame kind (command, response, batch, handoff)
// and PeekFrame's header, and seal/openFrame are the only code that touches
// the CRC trailer. The reader latches: the first read past the end, or a
// failed bounds check on a decoded count, length or magic, marks it bad,
// and every later read returns zero or nil. A decoder therefore reads its
// layout straight through and checks once at the end; count-driven loops
// stop as soon as the reader is bad, so a garbage count allocates nothing
// past the bytes actually present.
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
	// Ids 16–21 carried the stream/async APIs and id 24 the supervisor's
	// heartbeat; they stay reserved so later ids keep their wire values in
	// recorded dumps and journals. lakeD answers a reserved id like any
	// unknown one, with ErrInvalidValue.
	_
	_
	_
	_
	_
	_
	APICuMemGetInfo
	APIBatchedInfer
	_
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
	// TraceID is the flight recorder's cross-boundary correlation key. It
	// is always on the wire, right after Seq; 0 means untraced.
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

// Frame magics: one layout per frame kind.
const (
	cmdMagic  = 0xC2
	respMagic = 0xE1
)

// Every frame ends with a CRC32-C of the preceding bytes. A corrupted
// channel (the fault plane's bit flips, or a real DMA/socket fault) must be
// detected at the decoder, never executed: an undetected flip inside Args
// would silently run the wrong command against the device.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

const crcLen = 4

// seal appends the CRC32-C of dst[start:], the frame begun at start, and
// returns the extended slice. Every encoder ends with it; openFrame is its
// only verifier.
func seal(dst []byte, start int) []byte {
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable))
}

// openFrame verifies and strips the integrity trailer, returning the frame
// body. Truncated or corrupted frames yield ErrShortFrame.
func openFrame(frame []byte) ([]byte, error) {
	if len(frame) < crcLen+1 {
		return nil, ErrShortFrame
	}
	body := frame[:len(frame)-crcLen]
	trailer := reader{buf: frame[len(body):]}
	if want := trailer.u32(); crc32.Checksum(body, crcTable) != want {
		return nil, ErrShortFrame
	}
	return body, nil
}

// PeekFrame reads a wire frame's identifying header — sequence number and
// trace ID — without decoding or CRC-verifying the body.
// It is the flight recorder's frame peeker: the boundary channel tags its
// send/receive events with it at a few header loads per frame. ok is false
// for frames too short or not starting with a known magic; a frame
// corrupted elsewhere simply yields the (possibly garbled) header values,
// which is fine for a diagnostic event stream.
func PeekFrame(frame []byte) (fi flightrec.FrameInfo, ok bool) {
	r := reader{buf: frame}
	switch r.u8() {
	case respMagic: // magic | seq u64 | ...
		fi.Seq = r.u64()
	case cmdMagic: // magic | api u32 | seq u64 | trace u64 | ...
		r.u32()
		fi.Seq = r.u64()
		fi.TraceID = r.u64()
	default:
		return flightrec.FrameInfo{}, false
	}
	if r.bad {
		return flightrec.FrameInfo{}, false
	}
	return fi, true
}

// reader is the one frame decoder: every field of every frame kind is read
// through it, front to back. It latches — see the package doc — so a
// decoder reads its whole layout straight through and checks once, with
// done.
type reader struct {
	buf []byte
	pos int
	bad bool
}

// fail marks the frame corrupt: a bounds check on a decoded value failed.
func (r *reader) fail() { r.bad = true }

// need reports whether n more bytes can be read, latching bad when not.
func (r *reader) need(n int) bool {
	if r.bad || uint(n) > uint(len(r.buf)-r.pos) {
		r.bad = true
		return false
	}
	return true
}

// done reports ErrShortFrame unless every read succeeded and the body is
// consumed exactly.
func (r *reader) done() error {
	if r.bad || r.pos != len(r.buf) {
		return ErrShortFrame
	}
	return nil
}

func (r *reader) u8() (v byte) {
	if r.need(1) {
		v = r.buf[r.pos]
		r.pos++
	}
	return v
}

func (r *reader) u16() (v int) {
	if r.need(2) {
		v = int(binary.LittleEndian.Uint16(r.buf[r.pos:]))
		r.pos += 2
	}
	return v
}

func (r *reader) u32() (v uint32) {
	if r.need(4) {
		v = binary.LittleEndian.Uint32(r.buf[r.pos:])
		r.pos += 4
	}
	return v
}

func (r *reader) u64() (v uint64) {
	if r.need(8) {
		v = binary.LittleEndian.Uint64(r.buf[r.pos:])
		r.pos += 8
	}
	return v
}

// take returns the next n bytes, aliasing the frame, or nil when n is zero
// or the reader is bad.
func (r *reader) take(n int) []byte {
	if n == 0 || !r.need(n) {
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}
