// Package boundary models the kernel<->user communication channels LAKE
// evaluates in §6 before settling on Netlink sockets.
//
// Two paper artifacts are reproduced here. Table 2 compares the call time
// and doorbell latency of four Linux kernel->user signalling mechanisms
// (signals, device read/write, Netlink, mmap polling). Figure 6 measures the
// round-trip overhead of Netlink command messages as their size grows, which
// is what motivates routing bulk data through lakeShm instead of the command
// channel.
//
// The package also provides RingTransport (ring.go), the real byte-moving
// duplex pipe the remoting layer runs on: frames actually cross shm-resident
// descriptor rings, while the virtual clock is charged according to the cost
// model of whichever mechanism above the runtime was configured with.
package boundary

import (
	"errors"
	"fmt"
	"time"
)

// Kind identifies a kernel<->user communication mechanism.
type Kind int

// The mechanisms compared in Table 2, plus Ring — the cost of the
// shm-resident descriptor rings themselves, which this reproduction adds
// beyond the paper's Netlink choice. A Kind selects a cost model only;
// bytes always cross a RingTransport (see DESIGN.md "Descriptor-ring
// transport").
const (
	Signal Kind = iota
	DeviceRW
	Netlink
	Mmap
	Ring
)

var kindNames = [...]string{"Signal", "Device R/W", "Netlink", "Mmap", "Ring"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Kinds lists all mechanisms in Table 2's column order.
func Kinds() []Kind { return []Kind{Signal, DeviceRW, Netlink, Mmap} }

// costModel captures one row pair of Table 2 plus the message-size model
// behind Fig 6.
type costModel struct {
	// callTime is the cost, charged to the sender, of issuing a doorbell.
	callTime time.Duration
	// doorbellLatency is the delay until the receiver observes it.
	doorbellLatency time.Duration
	// msgBase is the fixed round-trip cost of a command message.
	msgBase time.Duration
	// msgPerChunk is the added cost per additional 4 KiB chunk beyond the
	// first: larger messages traverse extra socket buffer queuing and
	// copies (Fig 6's step pattern).
	msgPerChunk time.Duration
}

// Calibration targets (paper §6): Table 2's measured call time / latency in
// microseconds — Signal 56/56, Device R/W 6/57, Netlink 11/54, Mmap 6/6 —
// and Fig 6's Netlink round trips: ~29-33 µs flat through 4 KiB, then 67.80,
// 127.79 and 256.88 µs at 8, 16 and 32 KiB.
var models = map[Kind]costModel{
	Signal:   {56 * time.Microsecond, 56 * time.Microsecond, 115 * time.Microsecond, 118 * time.Microsecond},
	DeviceRW: {6 * time.Microsecond, 57 * time.Microsecond, 64 * time.Microsecond, 35 * time.Microsecond},
	Netlink:  {11 * time.Microsecond, 54 * time.Microsecond, 29 * time.Microsecond, 32500 * time.Nanosecond},
	Mmap:     {6 * time.Microsecond, 6 * time.Microsecond, 13 * time.Microsecond, 2 * time.Microsecond},
	// Ring is not a Table 2 row: shm descriptor rings pay no per-message
	// syscall, only cache-coherent stores plus a coalesced futex wake, so
	// the model is mmap's doorbell without the per-poll spin — a small
	// fixed cost and a near-flat size curve (payload already lives in
	// lakeShm).
	Ring: {1 * time.Microsecond, 2 * time.Microsecond, 4 * time.Microsecond, 500 * time.Nanosecond},
}

const chunkSize = 4096

// CallTime returns the sender-side cost of ringing a doorbell (Table 2 row
// 1).
func CallTime(k Kind) time.Duration { return models[k].callTime }

// DoorbellLatency returns the delay until the peer observes a doorbell
// (Table 2 row 2).
func DoorbellLatency(k Kind) time.Duration { return models[k].doorbellLatency }

// CPUBurn returns the CPU time the receiver wastes while waiting `wait` for
// a doorbell over channel k. Mmap polling spins a core for the entire wait
// — "the mmap method is fastest but wastes CPU spinning" (§6) — while the
// blocking mechanisms only pay a wakeup's worth of cycles.
func CPUBurn(k Kind, wait time.Duration) time.Duration {
	if k == Mmap {
		return wait
	}
	// Blocking receive: scheduler wakeup cost only.
	const wakeup = 2 * time.Microsecond
	if wait < wakeup {
		return wait
	}
	return wakeup
}

// MessageRoundTrip returns the modeled round-trip cost of a command message
// of size bytes plus its (small) response over channel k (Fig 6).
func MessageRoundTrip(k Kind, size int) time.Duration {
	m := models[k]
	chunks := (size + chunkSize - 1) / chunkSize
	if chunks < 1 {
		chunks = 1
	}
	return m.msgBase + time.Duration(chunks-1)*m.msgPerChunk
}

// ErrClosed is returned by transport operations after Close.
var ErrClosed = errors.New("boundary: transport closed")

// dirToUser / dirToKernel tag boundary events with the frame's direction.
const (
	dirToUser   = 0
	dirToKernel = 1
)
