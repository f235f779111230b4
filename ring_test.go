// Ring-transport acceptance: the descriptor rings' cost row must beat the
// paper's Netlink row by >= 2x on modeled single-call latency, every chaos
// mix must reproduce the golden predictions recorded from the Go-channel
// transport the rings replaced, and doorbell wakeups must coalesce so a
// burst of frames pays far fewer wakes than sends.
package lake_test

import (
	"hash/fnv"
	"testing"
	"time"

	lake "lakego"
	"lakego/internal/boundary"
	"lakego/internal/core"
)

// TestRingCallSpeedup pins the headline acceptance number: a single remoted
// call charged the descriptor rings' cost row costs at least 2x less modeled
// (virtual) time than the same call charged the paper's Netlink row.
func TestRingCallSpeedup(t *testing.T) {
	perCall := func(cfg core.Config) time.Duration {
		rt, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		lib := rt.Lib()
		const calls = 200
		start := rt.Clock().Now()
		for i := 0; i < calls; i++ {
			if _, r := lib.CuDeviceGetCount(); r != lake.Success {
				t.Fatal(r)
			}
		}
		return (rt.Clock().Now() - start) / calls
	}
	netlink := perCall(core.DefaultConfig())
	ring := perCall(ringConfig())
	t.Logf("single-call latency: netlink %v, ring %v, speedup %.2fx",
		netlink, ring, float64(netlink)/float64(ring))
	if float64(netlink) < 2*float64(ring) {
		t.Fatalf("ring single-call latency %v not >= 2x faster than netlink %v", ring, netlink)
	}
}

// chaosGolden is what a clean Netlink run of runChaosWorkloads(rounds, 16)
// produced on the Go-channel transport, recorded at the last commit that had
// one (182c984): FNV-64a over the prediction digest (one byte each) and
// Daemon().Executed(). Keyed by chaosRounds().
var chaosGolden = map[int]struct {
	predictions int
	fnv         uint64
	executed    int64
}{
	12: {576, 0x53692e11f76e44e6, 124},
	40: {1920, 0x48f4c7187571a532, 376},
}

// TestRingChaosBitIdentical is the transport-equivalence gate: every chaos
// mix of the sweep, run over the ring transport, must produce predictions
// byte-identical to the channel transport's clean run (chaosGolden), with
// exactly-once execution preserved (zero lost, zero re-executed).
func TestRingChaosBitIdentical(t *testing.T) {
	rounds, batch := chaosRounds(), 16
	golden, ok := chaosGolden[rounds]
	if !ok {
		t.Fatalf("no golden recorded for %d rounds", rounds)
	}

	mixes := []struct {
		name string
		mix  *lake.FaultMix
		long bool
	}{
		{"clean", nil, false},
		{"drop5", &lake.FaultMix{Drop: 0.05, Seed: 102}, false},
		{"dup2", &lake.FaultMix{Duplicate: 0.02, Seed: 103}, true},
		{"corrupt1", &lake.FaultMix{Corrupt: 0.01, Seed: 104}, true},
		{"crash", &lake.FaultMix{Crash: 0.01, Seed: 106}, false},
		{"mixed", &lake.FaultMix{
			Drop: 0.05, Corrupt: 0.01, Duplicate: 0.02,
			Delay: 0.1, DelayMin: 20 * time.Microsecond, DelayMax: 60 * time.Microsecond,
			Crash: 0.005, Seed: 107,
		}, false},
	}
	for _, tc := range mixes {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("reduced sweep in -short")
			}
			s := newChaosStackOn(t, tc.mix, lake.Ring)
			digest, _ := runChaosWorkloads(t, s, rounds, batch)
			h := fnv.New64a()
			for _, d := range digest {
				h.Write([]byte{byte(d)})
			}
			if len(digest) != golden.predictions || h.Sum64() != golden.fnv {
				t.Fatalf("%d predictions hashing to %#x diverged from the channel transport's %d / %#x",
					len(digest), h.Sum64(), golden.predictions, golden.fnv)
			}
			// Exactly-once across the transport swap: same distinct commands
			// executed, none lost, no redelivery re-executed.
			if got := s.rt.Daemon().Executed(); got != golden.executed {
				t.Fatalf("ring daemon executed %d distinct commands, channel executed %d", got, golden.executed)
			}
			rs := s.rt.Lib().ResilienceStats()
			if rs.DaemonDead != 0 {
				t.Fatalf("abandoned calls under %s: %+v", tc.name, rs)
			}
			if tc.mix != nil {
				fs := s.rt.FaultPlane().Stats()
				if fs.Dropped+fs.Corrupted+fs.Duplicated+fs.Delayed+fs.Crashes() == 0 {
					t.Fatalf("mix %s injected no faults over %d messages", tc.name, fs.Messages)
				}
			}
		})
	}
}

// TestRingEveryFrameRingsAndNoneWakes pins the traffic the one-lock rings
// are built for: across a full chaos-free workload run lakeLib sends one
// command and drains lakeD before it sends the next, so every frame in
// either direction lands on an empty ring (rings == frames) and nothing ever
// waits on one (wakes == 0). A caller that queues several frames before
// pumping fails here first.
func TestRingEveryFrameRingsAndNoneWakes(t *testing.T) {
	s := newChaosStackOn(t, nil, lake.Ring)
	runChaosWorkloads(t, s, chaosRounds()/2, 8)
	tr, ok := s.rt.Transport().(*boundary.RingTransport)
	if !ok {
		t.Fatalf("ring runtime transport is %T", s.rt.Transport())
	}
	sent, received := tr.Stats()
	rings, wakes, coalesced := tr.DoorbellStats()
	if sent == 0 || received == 0 {
		t.Fatalf("no traffic: sent=%d received=%d", sent, received)
	}
	if total := uint64(sent + received); rings != total {
		t.Fatalf("rings %d != frames %d: a frame was queued behind another", rings, total)
	}
	if wakes != 0 || coalesced != 0 {
		t.Fatalf("wakes=%d coalesced=%d, want 0: nothing waits on a ring", wakes, coalesced)
	}
	t.Logf("frames=%d rings=%d wakes=%d", sent+received, rings, wakes)
}
