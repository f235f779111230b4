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

// ringSlots fills the submission ring with empty frames and reports how
// many it took.
func ringSlots(t *testing.T, tr *RingTransport) int {
	t.Helper()
	n := 0
	for tr.SendToUser(nil) == nil {
		n++
	}
	return n
}

func TestRingCapacityRounding(t *testing.T) {
	cases := []struct{ depth, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {5, 8}, {1<<16 + 1, 1 << 17},
	}
	for _, c := range cases {
		tr, err := NewRingTransport(vtime.New(), nil, c.depth, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := ringSlots(t, tr); got != c.want {
			t.Errorf("depth %d holds %d frames, want %d", c.depth, got, c.want)
		}
	}
}

// Frames of distinct sizes come back in send order, byte for byte, and a
// drained ring delivers nothing.
func TestRingPushPopFIFO(t *testing.T) {
	tr := newNetlinkRing(t, vtime.New(), 8)
	for i := 0; i < 5; i++ {
		msg := make([]byte, i*3)
		for j := range msg {
			msg[j] = byte(i)
		}
		if err := tr.SendToUser(msg); err != nil {
			t.Fatalf("send %d on a non-full ring: %v", i, err)
		}
	}
	for i := 0; i < 5; i++ {
		msg, ok := tr.RecvInUser()
		if !ok {
			t.Fatalf("recv %d on a non-empty ring failed", i)
		}
		if len(msg) != i*3 || (len(msg) > 0 && msg[0] != byte(i)) {
			t.Fatalf("recv %d = %v, out of FIFO order", i, msg)
		}
	}
	if _, ok := tr.RecvInUser(); ok {
		t.Fatal("recv on a drained ring delivered a frame")
	}
}

// The last received frame stays borrowed, so a steady sender gets one slot
// less than the depth; three frames a lap on a depth-4 ring wrap every slot
// many times over, and FIFO order must hold throughout.
func TestRingWrapAround(t *testing.T) {
	tr := newNetlinkRing(t, vtime.New(), 4)
	next, want := 0, 0
	for lap := 0; lap < 1000; lap++ {
		for i := 0; i < 3; i++ {
			if err := tr.SendToKernel([]byte{byte(next), byte(next >> 8)}); err != nil {
				t.Fatalf("lap %d send %d: %v", lap, i, err)
			}
			next++
		}
		for i := 0; i < 3; i++ {
			msg, ok := tr.RecvInKernel()
			if !ok || len(msg) != 2 || int(msg[0])|int(msg[1])<<8 != want {
				t.Fatalf("lap %d: got %v ok=%v, want frame %d", lap, msg, ok, want)
			}
			want++
		}
	}
	if _, ok := tr.RecvInKernel(); ok {
		t.Fatal("drained ring delivered a frame")
	}
}

// A full ring rejects a send in either direction, and the rejected frame
// never reaches the receiver.
func TestRingFullRejectsPush(t *testing.T) {
	tr := newNetlinkRing(t, vtime.New(), 4)
	for i := 0; i < 4; i++ {
		if err := tr.SendToUser([]byte{byte(i)}); err != nil {
			t.Fatalf("send %d under capacity: %v", i, err)
		}
		if err := tr.SendToKernel([]byte{byte(i)}); err != nil {
			t.Fatalf("send %d under capacity: %v", i, err)
		}
	}
	if err := tr.SendToUser([]byte{99}); err == nil {
		t.Fatal("send on a full submission ring succeeded")
	}
	if err := tr.SendToKernel([]byte{99}); err == nil {
		t.Fatal("send on a full completion ring succeeded")
	}
	for i := 0; i < 4; i++ {
		if msg, ok := tr.RecvInUser(); !ok || msg[0] != byte(i) {
			t.Fatalf("submission recv %d = %v, %v", i, msg, ok)
		}
		if msg, ok := tr.RecvInKernel(); !ok || msg[0] != byte(i) {
			t.Fatalf("completion recv %d = %v, %v", i, msg, ok)
		}
	}
	if _, ok := tr.RecvInUser(); ok {
		t.Fatal("rejected frame reached the submission receiver")
	}
	if _, ok := tr.RecvInKernel(); ok {
		t.Fatal("rejected frame reached the completion receiver")
	}
}

func TestRingBorrowedSlotBlocksProducer(t *testing.T) {
	tr := newNetlinkRing(t, vtime.New(), 2)
	for _, m := range []string{"a", "b"} {
		if err := tr.SendToUser([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	if msg, ok := tr.RecvInUser(); !ok || string(msg) != "a" {
		t.Fatalf("first recv = %q, %v", msg, ok)
	}
	if err := tr.SendToUser([]byte("c")); err == nil {
		t.Fatal("send reused the slot still borrowed by the last recv")
	}
	if msg, ok := tr.RecvInUser(); !ok || string(msg) != "b" {
		t.Fatalf("second recv = %q, %v", msg, ok)
	}
	if err := tr.SendToUser([]byte("c")); err != nil {
		t.Fatalf("send after the borrow was released: %v", err)
	}
	if msg, ok := tr.RecvInUser(); !ok || string(msg) != "c" {
		t.Fatalf("third recv = %q, %v", msg, ok)
	}
	// A recv that finds the ring empty still releases the last borrow.
	if _, ok := tr.RecvInUser(); ok {
		t.Fatal("recv on a drained ring reported a frame")
	}
	for _, m := range []string{"d", "e"} {
		if err := tr.SendToUser([]byte(m)); err != nil {
			t.Fatalf("send %q after an empty recv released the borrow: %v", m, err)
		}
	}
}

// Frames wider than a slot spill to the slot's overflow buffer; frames of
// exactly slotBytes stay in the arena. Both must come back intact whichever
// kind last used the slot.
func TestRingOverflowFramesAcrossLaps(t *testing.T) {
	const slotBytes = 8
	tr, err := NewRingTransport(vtime.New(), nil, 2, slotBytes)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{20, 3, slotBytes, slotBytes + 1, 0, 64, 5, 33} {
		msg := make([]byte, n)
		for j := range msg {
			msg[j] = byte(i*31 + j)
		}
		if err := tr.SendToUser(msg); err != nil {
			t.Fatalf("frame %d (%d bytes): %v", i, n, err)
		}
		got, ok := tr.RecvInUser()
		if !ok || string(got) != string(msg) {
			t.Fatalf("frame %d (%d bytes) came back as %v, ok=%v", i, n, got, ok)
		}
	}
}

func TestRingCloseWithBorrowedFrame(t *testing.T) {
	tr := newNetlinkRing(t, vtime.New(), 2)
	tr.SendToUser([]byte("a"))
	tr.SendToUser([]byte("b"))
	if msg, ok := tr.RecvInUser(); !ok || string(msg) != "a" {
		t.Fatalf("recv = %q, %v", msg, ok)
	}
	tr.Close()
	if _, ok := tr.RecvInUser(); ok {
		t.Fatal("frame queued behind a borrow survived Close")
	}
	if err := tr.SendToUser([]byte("c")); err != ErrClosed {
		t.Fatalf("send after close = %v, want ErrClosed", err)
	}
	tr.Close()
}

// The doorbell counts sends that land on an empty ring: a burst queued
// behind the first frame rings once.
func TestRingDoorbellCountsEmptyRingPushes(t *testing.T) {
	tr := newNetlinkRing(t, vtime.New(), 4)
	tr.SendToUser([]byte("a"))
	tr.SendToUser([]byte("b"))
	tr.RecvInUser()
	tr.RecvInUser()
	tr.SendToUser([]byte("c"))
	tr.SendToKernel([]byte("r"))
	if rings, wakes, coalesced := tr.DoorbellStats(); rings != 3 || wakes != 0 || coalesced != 0 {
		t.Fatalf("DoorbellStats = (%d, %d, %d), want (3, 0, 0)", rings, wakes, coalesced)
	}
}

// BenchmarkPerfRingDescriptor measures one empty-frame SendToUser +
// RecvInUser cycle: a push and a pop on the submission ring.
func BenchmarkPerfRingDescriptor(b *testing.B) {
	tr, err := NewRingTransport(vtime.New(), nil, 64, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := tr.SendToUser(nil); err != nil {
			b.Fatal(err)
		}
		if _, ok := tr.RecvInUser(); !ok {
			b.Fatal("ring empty")
		}
	}
}
