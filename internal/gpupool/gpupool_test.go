package gpupool

import (
	"testing"
	"time"

	"lakego/internal/gpu"
	"lakego/internal/vtime"
)

func newPool(t *testing.T, n int, policy Policy) (*Pool, *vtime.Clock) {
	t.Helper()
	clk := vtime.New()
	specs := make([]gpu.Spec, n)
	for i := range specs {
		specs[i] = gpu.DefaultSpec()
	}
	p, err := New(Config{Specs: specs, Policy: policy, Seed: 42}, clk)
	if err != nil {
		t.Fatal(err)
	}
	return p, clk
}

func TestNewRejectsEmptyPool(t *testing.T) {
	if _, err := New(Config{}, vtime.New()); err == nil {
		t.Fatal("empty spec list accepted")
	}
}

func TestOrdinalsAndPointerTagging(t *testing.T) {
	p, _ := newPool(t, 4, RoundRobin)
	for i := 0; i < 4; i++ {
		d := p.Device(i)
		if d.Ordinal() != i {
			t.Fatalf("device %d reports ordinal %d", i, d.Ordinal())
		}
		ptr, err := d.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if got := gpu.DevPtrOrdinal(ptr); got != i {
			t.Fatalf("pointer %#x from device %d tags ordinal %d", ptr, i, got)
		}
	}
	// Device 0's pointers must match the single-device layout exactly.
	solo, err := gpu.New(gpu.DefaultSpec(), vtime.New()).Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := newPool(t, 4, RoundRobin)
	pooled, err := fresh.Device(0).Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if solo != pooled {
		t.Fatalf("device-0 pointer %#x differs from single-device %#x", pooled, solo)
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	p, _ := newPool(t, 3, RoundRobin)
	want := []int{0, 1, 2, 0, 1, 2}
	for i, w := range want {
		if got := p.Place("c"); got != w {
			t.Fatalf("placement %d = %d, want %d", i, got, w)
		}
	}
}

func TestLeastOutstandingPlacement(t *testing.T) {
	p, clk := newPool(t, 3, LeastOutstanding)
	// Device 0 has a deep backlog, device 1 a shallow one, device 2 idle.
	p.Device(0).OccupyUntil("w", 10*time.Millisecond)
	p.Device(1).OccupyUntil("w", 1*time.Millisecond)
	if got := p.Place("c"); got != 2 {
		t.Fatalf("placement = %d, want idle device 2", got)
	}
	// With 2 loaded too, the shallowest backlog (device 1) wins.
	p.Device(2).OccupyUntil("w", 5*time.Millisecond)
	if got := p.Place("c"); got != 1 {
		t.Fatalf("placement = %d, want shallowest-backlog device 1", got)
	}
	// Past all backlogs everything is zero; ties resolve to lowest ordinal.
	clk.AdvanceTo(20 * time.Millisecond)
	if got := p.Place("c"); got != 0 {
		t.Fatalf("placement = %d, want lowest-ordinal tie-break 0", got)
	}
}

func TestContentionAwarePlacementAvoidsBusyDevice(t *testing.T) {
	p, clk := newPool(t, 4, ContentionAware)
	clk.Advance(time.Second)
	// A tenant saturates device 0's sampling window.
	now := clk.Now()
	p.Device(0).OccupySpan("tenant", now-100*time.Millisecond, now)
	for i := 0; i < 16; i++ {
		if got := p.Place("c"); got == 0 {
			t.Fatalf("placement %d chose the saturated device", i)
		}
	}
	if got := p.PlaceFlush(); got == 0 {
		t.Fatal("flush placement chose the saturated device")
	}
}

func TestPlacementDeterministicUnderSeed(t *testing.T) {
	run := func() []int {
		p, clk := newPool(t, 4, ContentionAware)
		clk.Advance(time.Second)
		var seq []int
		for i := 0; i < 64; i++ {
			seq = append(seq, p.Place("c"), p.PlaceFlush())
		}
		return seq
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across identical runs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestAccountingAndAggregates(t *testing.T) {
	p, clk := newPool(t, 2, RoundRobin)
	clk.Advance(time.Second)
	p.Device(1).Execute("c", time.Millisecond, nil)
	p.Device(1).ObserveCopy(4096, 10*time.Microsecond)
	acct := p.Accounting()
	if acct[0].Launches != 0 || acct[1].Launches != 1 {
		t.Fatalf("launches = %d/%d, want 0/1", acct[0].Launches, acct[1].Launches)
	}
	if acct[1].Copies != 1 || acct[1].CopyBytes != 4096 {
		t.Fatalf("copies = %d (%d bytes), want 1 (4096)", acct[1].Copies, acct[1].CopyBytes)
	}
	if u := p.DeviceRates(0); u.GPU != 0 {
		t.Fatalf("device 0 util = %d, want 0", u.GPU)
	}
	agg := p.AggregateRates()
	if solo := p.DeviceRates(1); agg.GPU >= solo.GPU {
		t.Fatalf("aggregate GPU %d not below busy device's %d", agg.GPU, solo.GPU)
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, pol := range []Policy{RoundRobin, LeastOutstanding, ContentionAware} {
		got, err := ParsePolicy(pol.String())
		if err != nil || got != pol {
			t.Fatalf("ParsePolicy(%q) = %v, %v", pol.String(), got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}
