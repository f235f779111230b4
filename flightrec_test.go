// Flight-recorder acceptance: a fault-ridden chaos run must leave behind a
// dump from which laketrace's stitcher reconstructs essentially every
// completed remoted call as a complete cross-domain timeline, agreeing with
// lakeLib's own counters — an account of the same calls that never touches
// the recorder. The frame layouts, traced and untraced, are pinned by
// internal/remoting's wire-shape tests.
package lake_test

import (
	"fmt"
	"maps"
	"testing"
	"time"

	lake "lakego"
	"lakego/internal/batcher"
	"lakego/internal/fleet"
	"lakego/internal/flightrec"
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

// kindDelta counts, per event kind, what the recorder wrote since before
// (nil: since boot), failing if any domain wrapped.
func kindDelta(t *testing.T, rec *flightrec.Recorder, before map[flightrec.Kind]int) map[flightrec.Kind]int {
	t.Helper()
	d := rec.Snapshot("count")
	if n := d.TotalDropped(); n != 0 {
		t.Fatalf("recorder dropped %d events; size the ring up", n)
	}
	got := map[flightrec.Kind]int{}
	for _, dd := range d.Domains {
		for _, e := range dd.Events {
			got[e.Kind]++
		}
	}
	for k, n := range before {
		if got[k] -= n; got[k] == 0 {
			delete(got, k)
		}
	}
	return got
}

// scaled multiplies a per-unit event budget by n.
func scaled(per map[flightrec.Kind]int, n int) map[flightrec.Kind]int {
	out := map[flightrec.Kind]int{}
	for k, v := range per {
		out[k] = v * n
	}
	return out
}

// TestRecorderEventsPerRequest pins what the recorder writes for a healthy
// request, kind by kind: three events per remoted call (lakeLib's call
// start and end, lakeD's execution end carrying the dispatch), the GPU's
// copies and one EvExec carrying the launch. An unbatched MLLB inference is
// three remoted calls, two copies and one launch: 12 events. A fleet request
// is its EvEnqueue, which carries the route hop; its 32-item flush adds 8.
// Off the healthy path the split forms are still written: a crash point and
// a journal hit each follow a separate EvDispatch, and a retransmission
// writes EvRetry.
func TestRecorderEventsPerRequest(t *testing.T) {
	t.Run("mllb", func(t *testing.T) {
		cfg := lake.DefaultConfig()
		cfg.FlightRecorderSize = 1 << 12
		rt, err := lake.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		bal, err := mllb.New(rt, nn.New(13, mllb.Sizes()...))
		if err != nil {
			t.Fatal(err)
		}
		item := [][]float32{make([]float32, mllb.InputWidth)}
		if _, _, err := bal.Runner().RunLAKE(item, true); err != nil { // warm
			t.Fatal(err)
		}
		before := kindDelta(t, rt.FlightRecorder(), nil)
		const n = 100
		for i := 0; i < n; i++ {
			if _, _, err := bal.Runner().RunLAKE(item, true); err != nil {
				t.Fatal(err)
			}
		}
		want := scaled(map[flightrec.Kind]int{
			flightrec.EvCallStart: 3, flightrec.EvCallEnd: 3, flightrec.EvExecEnd: 3,
			flightrec.EvCopy: 2, flightrec.EvExec: 1,
		}, n)
		if got := kindDelta(t, rt.FlightRecorder(), before); !maps.Equal(got, want) {
			t.Fatalf("%d RunLAKEs wrote %v, want %v (12 per inference)", n, got, want)
		}
	})

	t.Run("fleet", func(t *testing.T) {
		rcfg := lake.DefaultConfig()
		rcfg.FlightRecorderSize = 1 << 12
		rcfg.NumShards = 2
		f, err := lake.NewFleet(lake.FleetConfig{
			Runtime: rcfg,
			Batcher: batcher.Config{MaxBatch: 32, MaxWait: 100 * time.Microsecond, ClientDepth: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		net := nn.New(7, 4, 8, 2)
		if err := f.RegisterModel(lake.BatcherModel{
			Name: "countnet", InputWidth: 4, OutputWidth: 2, MaxBatch: 64,
			FlopsPerItem: 300, Forward: net.Forward,
		}); err != nil {
			t.Fatal(err)
		}
		var clients []*fleet.Client
		for c := 0; c < 64; c++ {
			clients = append(clients, f.Client(fmt.Sprintf("tenant%02d", c)))
		}
		wave := func() {
			pend := make([]*lake.FleetPending, 0, len(clients))
			for _, c := range clients {
				p, err := c.Submit("countnet", [][]float32{{0.1, 0.2, 0.3, 0.4}})
				if err != nil {
					t.Fatal(err)
				}
				pend = append(pend, p)
			}
			for _, p := range pend {
				if _, err := p.Wait(); err != nil {
					t.Fatal(err)
				}
			}
		}
		wave() // every tenant placed
		before := kindDelta(t, f.Recorder(), nil)
		const waves = 8
		for i := 0; i < waves; i++ {
			wave() // 32 tenants a shard: one full flush each
		}
		requests, flushes := waves*len(clients), waves*2
		want := map[flightrec.Kind]int{flightrec.EvEnqueue: requests}
		for k, v := range map[flightrec.Kind]int{
			flightrec.EvFlushStart: 1, flightrec.EvFlushEnd: 1,
			flightrec.EvCallStart: 1, flightrec.EvCallEnd: 1, flightrec.EvExecEnd: 1,
			flightrec.EvCopy: 2, flightrec.EvExec: 1,
		} {
			want[k] = v * flushes
		}
		if got := kindDelta(t, f.Recorder(), before); !maps.Equal(got, want) {
			t.Fatalf("%d requests in %d full flushes wrote %v, want %v (1 per request + 8 per flush)",
				requests, flushes, got, want)
		}
	})

	t.Run("fault paths", func(t *testing.T) {
		cfg := lake.DefaultConfig()
		cfg.FlightRecorderSize = 1 << 12
		cfg.Faults = &lake.FaultMix{Seed: 5} // plane attached; crashes injected by hand
		rt, err := lake.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		lib := rt.Lib()
		call := func() {
			if _, r := lib.CuDeviceGetCount(); r != lake.Success {
				t.Fatal(r)
			}
		}
		call()
		before := kindDelta(t, rt.FlightRecorder(), nil)
		rt.Daemon().InjectCrash(false)
		call() // crashes before executing; retried, then executed once
		rt.Daemon().InjectCrash(true)
		call() // executes, crashes before answering; retried, answered from the journal
		got := kindDelta(t, rt.FlightRecorder(), before)
		if got[flightrec.EvCrash] != 2 || got[flightrec.EvJournalHit] == 0 || got[flightrec.EvExecEnd] != 2 ||
			got[flightrec.EvDispatch] != got[flightrec.EvCrash]+got[flightrec.EvJournalHit] || got[flightrec.EvRetry] == 0 {
			t.Fatalf("two crashed calls wrote %v: want 2 crashes, journal hits, 2 execution ends, "+
				"one split dispatch per crash point and journal hit, and retries", got)
		}
		// Each split dispatch is written just before what it precedes.
		var prev flightrec.Event
		for _, e := range rt.FlightRecorder().Snapshot("order").Domains[flightrec.DomainDaemon].Events {
			switch e.Kind {
			case flightrec.EvJournalHit:
				if prev.Kind != flightrec.EvDispatch || prev.TraceID != e.TraceID || prev.VTime != e.VTime {
					t.Errorf("journal hit %+v not preceded by its dispatch (%+v)", e, prev)
				}
			case flightrec.EvCrash:
				if at, ok := prev.Dispatch(); !ok || prev.TraceID != e.TraceID || (prev.Kind == flightrec.EvDispatch && at != e.VTime) {
					t.Errorf("crash %+v not preceded by its dispatch (%+v)", e, prev)
				}
			}
			prev = e
		}
	})
}
