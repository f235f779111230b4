package storage

import (
	"testing"
	"testing/quick"
	"time"

	"lakego/internal/trace"
)

func dev(seed int64) *Device { return NewDevice("nvme0", seed) }

func TestSubmitBasics(t *testing.T) {
	d := dev(1)
	c := d.Submit(0, 4096, false)
	if c.Latency <= 0 || c.FinishAt != c.Latency {
		t.Fatalf("completion = %+v", c)
	}
	if d.Submitted() != 1 {
		t.Fatalf("Submitted = %d", d.Submitted())
	}
}

func TestUnloadedReadsAreFast(t *testing.T) {
	// Modern NVMes under light load show low, stable read latency (§7.1).
	d := dev(2)
	var sum time.Duration
	const n = 200
	now := time.Duration(0)
	for i := 0; i < n; i++ {
		c := d.Submit(now, 16<<10, false)
		sum += c.Latency
		now = c.FinishAt + time.Millisecond // fully drain between I/Os
	}
	avg := sum / n
	if avg > 150*time.Microsecond {
		t.Fatalf("unloaded avg read latency = %v, want < 150µs", avg)
	}
}

func TestOverloadCausesSlowIOs(t *testing.T) {
	d := dev(3)
	// Slam the device: 5000 reads at 2µs spacing.
	slow := 0
	for i := 0; i < 5000; i++ {
		c := d.Submit(time.Duration(i)*2*time.Microsecond, 64<<10, false)
		if c.Slow {
			slow++
		}
	}
	if slow == 0 {
		t.Fatal("no GC stalls under overload")
	}
	if d.SlowCount() != int64(slow) {
		t.Fatalf("SlowCount = %d, want %d", d.SlowCount(), slow)
	}
}

func TestQueueDepthDrivesLatencyVariance(t *testing.T) {
	// Average latency under overload must exceed unloaded latency by a
	// large factor — the variance LinnOS exploits.
	unloaded := dev(4)
	loaded := dev(4)
	var u, l time.Duration
	const n = 2000
	now := time.Duration(0)
	for i := 0; i < n; i++ {
		c := unloaded.Submit(now, 32<<10, false)
		u += c.Latency
		now = c.FinishAt + 500*time.Microsecond
	}
	for i := 0; i < n; i++ {
		l += loaded.Submit(time.Duration(i)*3*time.Microsecond, 32<<10, false).Latency
	}
	if l < 4*u {
		t.Fatalf("loaded latency sum %v not >> unloaded %v", l, u)
	}
}

func TestPendingTracksInflight(t *testing.T) {
	d := dev(5)
	for i := 0; i < 10; i++ {
		d.Submit(0, 1<<20, false)
	}
	if got := d.Pending(0); got != 10 {
		t.Fatalf("Pending(0) = %d, want 10", got)
	}
	if got := d.Pending(time.Hour); got != 0 {
		t.Fatalf("Pending(1h) = %d, want 0", got)
	}
}

func TestRecentLatenciesNewestFirst(t *testing.T) {
	d := dev(6)
	var lats []time.Duration
	now := time.Duration(0)
	for i := 0; i < 6; i++ {
		c := d.Submit(now, 4096, false)
		lats = append(lats, c.Latency)
		now = c.FinishAt
	}
	recent := d.RecentLatencies()
	if len(recent) != RecentWindow {
		t.Fatalf("recent = %d entries, want %d", len(recent), RecentWindow)
	}
	for i := 0; i < RecentWindow; i++ {
		if recent[i] != lats[len(lats)-1-i] {
			t.Fatalf("recent[%d] = %v, want %v", i, recent[i], lats[len(lats)-1-i])
		}
	}
}

func TestWritesCheaperThanReadsUnloaded(t *testing.T) {
	dr, dw := dev(7), dev(7)
	var r, w time.Duration
	now := time.Duration(0)
	for i := 0; i < 500; i++ {
		c := dr.Submit(now, 8<<10, false)
		r += c.Latency
		now = c.FinishAt + time.Millisecond
	}
	now = 0
	for i := 0; i < 500; i++ {
		c := dw.Submit(now, 8<<10, true)
		w += c.Latency
		now = c.FinishAt + time.Millisecond
	}
	if w >= r {
		t.Fatalf("buffered writes (%v) not cheaper than reads (%v)", w, r)
	}
}

func TestZeroSizeDefaults(t *testing.T) {
	d := dev(8)
	c := d.Submit(0, 0, false)
	if c.Latency <= 0 {
		t.Fatal("zero-size I/O got zero latency")
	}
}

func TestArrayRequiresTwoDevices(t *testing.T) {
	if _, err := NewArray(dev(1)); err == nil {
		t.Fatal("single-device array accepted")
	}
	a, err := NewArray(dev(1), dev(2), dev(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Devices()) != 3 {
		t.Fatalf("Devices = %d", len(a.Devices()))
	}
}

func TestReissueTargetSkipsSource(t *testing.T) {
	d1 := NewDevice("nvme0", 1)
	d2 := NewDevice("nvme1", 2)
	d3 := NewDevice("nvme2", 3)
	a, _ := NewArray(d1, d2, d3)
	for i := 0; i < 20; i++ {
		if got := a.ReissueTarget(d1); got == d1 {
			t.Fatal("reissue target equals excluded device")
		}
	}
	// Round robin visits both alternatives.
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		seen[a.ReissueTarget(d1).Name()] = true
	}
	if len(seen) != 2 {
		t.Fatalf("round robin visited %d targets, want 2", len(seen))
	}
}

func TestReplayRealTraceProducesSaneLatencies(t *testing.T) {
	d := dev(9)
	reqs := trace.Azure().Generate(11, 3000)
	var total time.Duration
	reads := 0
	for _, r := range reqs {
		c := d.Submit(r.Arrival, r.Size, r.Write)
		if !r.Write {
			total += c.Latency
			reads++
		}
	}
	avg := total / time.Duration(reads)
	if avg < 10*time.Microsecond || avg > 5*time.Millisecond {
		t.Fatalf("Azure replay avg read latency = %v, outside sane range", avg)
	}
}

// Property: latency is always positive and completion never precedes
// submission.
func TestQuickLatencyPositive(t *testing.T) {
	f := func(seed int64, sizes []uint16) bool {
		d := dev(seed)
		now := time.Duration(0)
		for _, s := range sizes {
			c := d.Submit(now, int64(s)*512, s%3 == 0)
			if c.Latency <= 0 || c.FinishAt < now {
				return false
			}
			now += time.Duration(s) * time.Microsecond / 4
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
