// Health-plane acceptance: a chaos-mix run that breaches the fast-burn
// threshold must leave behind exactly one incident bundle — the anomaly
// latch arms on the rising edge and stays armed while the breach persists —
// and that bundle must be a usable black box: a flight-recorder dump whose
// stitched cross-domain timelines are >=99% complete, a merged telemetry
// snapshot, the model registry's state, and the SLO view that tripped.
package lake_test

import (
	"testing"
	"time"

	lake "lakego"
	"lakego/internal/lifecycle"
	"lakego/internal/linnos"
	"lakego/internal/nn"
)

func TestHealthPlaneIncidentCapture(t *testing.T) {
	mix := &lake.FaultMix{
		Drop: 0.05, Corrupt: 0.01, Duplicate: 0.02,
		Delay: 0.1, DelayMin: 20 * time.Microsecond, DelayMax: 60 * time.Microsecond,
		Crash: 0.005, Seed: 211,
	}
	s := newTracedChaosStack(t, mix)

	// A lifecycle manager on the runtime so the bundle carries registry
	// state alongside the dump and the metrics snapshot.
	mgr, err := lifecycle.New(s.rt, lifecycle.DefaultConfig("linnos-base"), nn.New(21, linnos.Base.Sizes()...))
	if err != nil {
		t.Fatal(err)
	}

	// A 1µs call budget no real call can meet: the very first poll after
	// traffic must see attainment far below target and trip fast-burn.
	plane := lake.NewHealthPlane(s.rt, lake.HealthPlaneConfig{
		Tick:       time.Millisecond,
		ShortTicks: 5,
		LongTicks:  1000,
		Objectives: []lake.SLOObjective{{Name: "calls", Stage: "call", Budget: time.Microsecond, Target: 0.999}},
	})
	plane.Watch(mgr)

	runChaosWorkloads(t, s, chaosRounds(), 16)

	incidents := plane.Poll()
	if len(incidents) != 1 {
		t.Fatalf("breach produced %d incidents, want exactly 1 (rising-edge latch)", len(incidents))
	}
	inc := incidents[0]
	if inc.Trigger != "fast-burn" || inc.Objective != "calls" {
		t.Fatalf("incident = %s/%s, want fast-burn/calls (detail: %s)", inc.Trigger, inc.Objective, inc.Detail)
	}

	// The black box must reconstruct: stitch the captured dump and hold it
	// to the same >=99%-complete bar as the direct-snapshot acceptance.
	if inc.Dump == nil {
		t.Fatal("incident bundle has no flight-recorder dump")
	}
	res := lake.StitchFlightDump(inc.Dump)
	if res.Completed == 0 {
		t.Fatal("no completed calls stitched from the incident dump")
	}
	if float64(res.Complete) < 0.99*float64(res.Completed) {
		t.Fatalf("only %d of %d completed calls fully reconstructed from the incident dump (< 99%%)",
			res.Complete, res.Completed)
	}

	if len(inc.Telemetry.Counters) == 0 || len(inc.Telemetry.Histograms) == 0 {
		t.Fatalf("incident telemetry snapshot empty: %d counters, %d histograms",
			len(inc.Telemetry.Counters), len(inc.Telemetry.Histograms))
	}
	if len(inc.Models) != 1 || inc.Models[0].Model != "linnos-base" || len(inc.Models[0].Versions) == 0 {
		t.Fatalf("incident registry state = %+v, want the linnos-base manager with its versions", inc.Models)
	}
	if inc.SLO == nil || len(inc.SLO.Objectives) == 0 {
		t.Fatal("incident bundle has no SLO state")
	}

	// The breach persists — more bad traffic must NOT re-trip the latch.
	runChaosWorkloads(t, s, 4, 8)
	if extra := plane.Poll(); len(extra) != 0 {
		t.Fatalf("latched breach re-captured %d incidents; want 0 until the burn clears", len(extra))
	}
	if got := len(plane.Incidents()); got != 1 {
		t.Fatalf("incident ring holds %d bundles, want 1", got)
	}
}
