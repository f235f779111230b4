// Flight-recorder acceptance: a fault-ridden chaos run must leave behind a
// dump from which laketrace's stitcher reconstructs essentially every
// completed remoted call as a complete cross-domain timeline, agreeing with
// lakeLib's own counters — an account of the same calls that never touches
// the recorder. The frame layouts, traced and untraced, are pinned by
// internal/remoting's wire-shape tests.
package lake_test

import (
	"testing"
	"time"

	lake "lakego"
	"lakego/internal/kml"
	"lakego/internal/linnos"
	"lakego/internal/mllb"
	"lakego/internal/nn"
)

// newTracedChaosStack is newChaosStack with a flight-recorder ring large
// enough that the run loses no events.
func newTracedChaosStack(t *testing.T, mix *lake.FaultMix) *chaosStack {
	t.Helper()
	cfg := lake.DefaultConfig()
	cfg.Faults = mix
	cfg.FlightRecorderSize = 1 << 16
	rt, err := lake.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	dumpOnFailure(t, rt)
	lin, err := linnos.NewPredictor(rt, linnos.Base, nn.New(11, linnos.Base.Sizes()...))
	if err != nil {
		t.Fatal(err)
	}
	km, err := kml.New(rt, nn.New(12, kml.Sizes()...))
	if err != nil {
		t.Fatal(err)
	}
	ml, err := mllb.New(rt, nn.New(13, mllb.Sizes()...))
	if err != nil {
		t.Fatal(err)
	}
	return &chaosStack{rt: rt, lin: lin, km: km, ml: ml}
}

func within1pct(a, b time.Duration) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	return float64(d) <= 0.01*float64(m)
}

// TestFlightRecorderChaosReconstruction runs the chaos sweep's harshest mix
// with the recorder armed and holds the stitcher to the acceptance bar:
// nothing dropped, ≥99% of completed calls rebuilt with the full
// client→daemon→client chain, and — over every call, not a sample — boundary
// time, successful-call count and latency total agreeing with lakeLib's
// stats and telemetry counters.
func TestFlightRecorderChaosReconstruction(t *testing.T) {
	mix := &lake.FaultMix{
		Drop: 0.05, Corrupt: 0.01, Duplicate: 0.02,
		Delay: 0.1, DelayMin: 20 * time.Microsecond, DelayMax: 60 * time.Microsecond,
		Crash: 0.005, Seed: 107,
	}
	s := newTracedChaosStack(t, mix)
	runChaosWorkloads(t, s, chaosRounds(), 16)

	fs := s.rt.FaultPlane().Stats()
	if fs.Dropped+fs.Corrupted+fs.Duplicated+fs.Delayed+fs.Crashes() == 0 {
		t.Fatalf("mix injected no faults over %d messages; the run proves nothing", fs.Messages)
	}

	rec := s.rt.FlightRecorder()
	if rec == nil {
		t.Fatal("telemetry-enabled runtime has no flight recorder")
	}
	dump := rec.Snapshot("chaos-acceptance")
	if n := dump.TotalDropped(); n != 0 {
		t.Fatalf("recorder dropped %d events with a %d-slot ring", n, 1<<16)
	}

	res := lake.StitchFlightDump(dump)
	if res.Completed == 0 {
		t.Fatal("no completed calls stitched from the dump")
	}
	if float64(res.Complete) < 0.99*float64(res.Completed) {
		incomplete := 0
		for _, tl := range res.Timelines {
			if tl.Completed && !tl.Complete {
				incomplete++
				if incomplete <= 5 {
					t.Logf("incomplete: trace=%d seq=%d missing=%v", tl.TraceID, tl.Seq, tl.Missing)
				}
			}
		}
		t.Fatalf("only %d of %d completed calls fully reconstructed (< 99%%)", res.Complete, res.Completed)
	}

	// Cross-check against an account of the same calls that is not derived
	// from the recorder. lakeLib adds each ChargeRoundTrip return to its
	// remoted time and records it on EvCallEnd, so with nothing dropped the
	// boundary stages must sum to it exactly; a failed exchange surfaces (and
	// records) ErrNotReady and moves neither the call counter nor the
	// latency histogram.
	var boundary, total time.Duration
	var succeeded int64
	for _, tl := range res.Timelines {
		boundary += tl.Boundary
		if tl.Completed && tl.Result != uint64(lake.ErrNotReady) {
			succeeded++
			total += tl.Total()
		}
	}
	if st := s.rt.Stats(); boundary != st.ChannelTime {
		t.Fatalf("stitched boundary time %v != lakeLib remoted time %v", boundary, st.ChannelTime)
	}
	snap := s.rt.Telemetry().Snapshot()
	if calls := snap.Counters["lake_lib_calls_total"]; succeeded != calls {
		t.Fatalf("stitched %d successful calls, lake_lib_calls_total = %d", succeeded, calls)
	}
	if sum := time.Duration(snap.Histograms["lake_lib_call_latency_ns"].Sum); !within1pct(total, sum) {
		t.Fatalf("stitched call totals %v vs lake_lib_call_latency_ns sum %v", total, sum)
	}
	t.Logf("stitched %d calls (%d completed, %d complete, %d succeeded), %d events",
		len(res.Timelines), res.Completed, res.Complete, succeeded, dump.TotalEvents())
}
