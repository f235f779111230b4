package boundary

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"lakego/internal/vtime"
)

// Table 2's measured values, microseconds.
func TestTable2Values(t *testing.T) {
	cases := []struct {
		kind      Kind
		call, lat time.Duration
	}{
		{Signal, 56 * time.Microsecond, 56 * time.Microsecond},
		{DeviceRW, 6 * time.Microsecond, 57 * time.Microsecond},
		{Netlink, 11 * time.Microsecond, 54 * time.Microsecond},
		{Mmap, 6 * time.Microsecond, 6 * time.Microsecond},
	}
	for _, c := range cases {
		if got := CallTime(c.kind); got != c.call {
			t.Errorf("%s call time = %v, want %v", c.kind, got, c.call)
		}
		if got := DoorbellLatency(c.kind); got != c.lat {
			t.Errorf("%s doorbell latency = %v, want %v", c.kind, got, c.lat)
		}
	}
}

// Netlink is the chosen channel: mmap is faster but spins; all others have
// >50µs latency (§6 "The mmap method is fastest but wastes CPU spinning, so
// we use Netlink sockets").
func TestNetlinkBeatsNonSpinningAlternatives(t *testing.T) {
	for _, k := range []Kind{Signal, DeviceRW} {
		if DoorbellLatency(Netlink) >= DoorbellLatency(k) {
			t.Errorf("Netlink latency %v not < %s latency %v",
				DoorbellLatency(Netlink), k, DoorbellLatency(k))
		}
	}
	if DoorbellLatency(Mmap) >= DoorbellLatency(Netlink) {
		t.Error("Mmap should have the lowest doorbell latency")
	}
}

// Fig 6: flat until 4KiB, then roughly doubling steps.
func TestFig6NetlinkMessageCosts(t *testing.T) {
	cases := []struct {
		size int
		min  time.Duration
		max  time.Duration
	}{
		{128, 25 * time.Microsecond, 35 * time.Microsecond},
		{1024, 25 * time.Microsecond, 35 * time.Microsecond},
		{4096, 25 * time.Microsecond, 35 * time.Microsecond},
		{8192, 55 * time.Microsecond, 75 * time.Microsecond},
		{16384, 110 * time.Microsecond, 140 * time.Microsecond},
		{32768, 230 * time.Microsecond, 280 * time.Microsecond},
	}
	for _, c := range cases {
		got := MessageRoundTrip(Netlink, c.size)
		if got < c.min || got > c.max {
			t.Errorf("MessageRoundTrip(Netlink, %d) = %v, want in [%v, %v]",
				c.size, got, c.min, c.max)
		}
	}
}

func TestMessageRoundTripZeroSize(t *testing.T) {
	if got, want := MessageRoundTrip(Netlink, 0), MessageRoundTrip(Netlink, 1); got != want {
		t.Fatalf("zero-size message cost %v != minimal cost %v", got, want)
	}
}

func TestKindString(t *testing.T) {
	if Netlink.String() != "Netlink" {
		t.Fatalf("Netlink.String() = %q", Netlink)
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind stringifies empty")
	}
	if len(Kinds()) != 4 {
		t.Fatalf("Kinds() = %v", Kinds())
	}
}

// newNetlinkRing builds the default runtime's transport shape: descriptor
// rings charging the Netlink cost row.
func newNetlinkRing(t *testing.T, clk *vtime.Clock, depth int) *RingTransport {
	t.Helper()
	tr, err := NewRingTransport(clk, nil, depth, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetCostModel(Netlink)
	return tr
}

func TestTransportRoundTrip(t *testing.T) {
	clk := vtime.New()
	tr := newNetlinkRing(t, clk, 8)
	if err := tr.SendToUser([]byte("cmd")); err != nil {
		t.Fatal(err)
	}
	msg, ok := tr.RecvInUser()
	if !ok || string(msg) != "cmd" {
		t.Fatalf("RecvInUser = %q, %v", msg, ok)
	}
	if err := tr.SendToKernel([]byte("resp")); err != nil {
		t.Fatal(err)
	}
	resp, ok := tr.RecvInKernel()
	if !ok || string(resp) != "resp" {
		t.Fatalf("RecvInKernel = %q, %v", resp, ok)
	}
	sent, recvd := tr.Stats()
	if sent != 1 || recvd != 1 {
		t.Fatalf("Stats = %d, %d; want 1, 1", sent, recvd)
	}
	// Data movement does not charge the clock; ChargeRoundTrip does.
	if clk.Now() != 0 {
		t.Fatalf("clock = %v, want 0 after pure data movement", clk.Now())
	}
}

// The sender may reuse its buffer as soon as a send returns: the frame was
// copied into a payload slot.
func TestTransportCopiesMessages(t *testing.T) {
	tr := newNetlinkRing(t, vtime.New(), 1)
	buf := []byte{1}
	tr.SendToUser(buf)
	buf[0] = 99
	msg, _ := tr.RecvInUser()
	if msg[0] != 1 {
		t.Fatal("transport aliased sender buffer")
	}
}

func TestTransportQueueFull(t *testing.T) {
	tr := newNetlinkRing(t, vtime.New(), 2)
	for _, m := range []string{"a", "b"} {
		if err := tr.SendToUser([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	err := tr.SendToUser([]byte("c"))
	if err == nil {
		t.Fatal("third send on depth-2 ring succeeded")
	}
	if !strings.Contains(err.Error(), Netlink.String()) {
		t.Fatalf("queue-full error %q does not name the configured kind", err)
	}
}

func TestTransportEmptyRecv(t *testing.T) {
	tr := newNetlinkRing(t, vtime.New(), 1)
	if _, ok := tr.RecvInUser(); ok {
		t.Fatal("RecvInUser on empty transport reported ok")
	}
	if _, ok := tr.RecvInKernel(); ok {
		t.Fatal("RecvInKernel on empty transport reported ok")
	}
}

func TestTransportClose(t *testing.T) {
	tr := newNetlinkRing(t, vtime.New(), 4)
	tr.SendToUser([]byte("pending"))
	tr.Close()
	if err := tr.SendToUser([]byte("x")); err != ErrClosed {
		t.Fatalf("send after close = %v, want ErrClosed", err)
	}
	if err := tr.SendToKernel([]byte("x")); err != ErrClosed {
		t.Fatalf("send after close = %v, want ErrClosed", err)
	}
	if _, ok := tr.RecvInUser(); ok {
		t.Fatal("pending message survived Close")
	}
	tr.Close() // idempotent
}

func TestChargeRoundTripAdvancesClock(t *testing.T) {
	clk := vtime.New()
	tr := newNetlinkRing(t, clk, 1)
	d := tr.ChargeRoundTrip(8192)
	if clk.Now() != d {
		t.Fatalf("clock = %v, charge = %v", clk.Now(), d)
	}
	if d != MessageRoundTrip(Netlink, 8192) {
		t.Fatalf("charge = %v, want %v", d, MessageRoundTrip(Netlink, 8192))
	}
}

// Property: message cost is monotonically non-decreasing in size for every
// channel kind.
func TestQuickMessageCostMonotone(t *testing.T) {
	f := func(a, b uint16, kraw uint8) bool {
		k := Kinds()[int(kraw)%4]
		s1, s2 := int(a), int(b)
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		return MessageRoundTrip(k, s1) <= MessageRoundTrip(k, s2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// §6's rationale for rejecting mmap despite its 6µs latency: a core burns
// for the whole wait, while blocking channels pay only a wakeup.
func TestCPUBurnExplainsMmapRejection(t *testing.T) {
	wait := 500 * time.Microsecond
	if got := CPUBurn(Mmap, wait); got != wait {
		t.Fatalf("mmap burn = %v, want full wait %v", got, wait)
	}
	for _, k := range []Kind{Signal, DeviceRW, Netlink} {
		if got := CPUBurn(k, wait); got > 5*time.Microsecond {
			t.Fatalf("%s burn = %v, want wakeup-only", k, got)
		}
	}
	// Tiny waits never charge more than the wait itself.
	if got := CPUBurn(Netlink, time.Microsecond); got != time.Microsecond {
		t.Fatalf("sub-wakeup burn = %v", got)
	}
}
