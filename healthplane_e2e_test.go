// Health-plane acceptance: a chaos-mix run that breaches the fast-burn
// threshold must leave behind exactly one incident bundle — the anomaly
// latch arms on the rising edge and stays armed while the breach persists —
// and that bundle must be a usable black box: a flight-recorder dump whose
// stitched cross-domain timelines are >=99% complete, a telemetry snapshot,
// and the SLO view that tripped.
package lake_test

import (
	"testing"
	"time"

	lake "lakego"
)

func TestHealthPlaneIncidentCapture(t *testing.T) {
	mix := &lake.FaultMix{
		Drop: 0.05, Corrupt: 0.01, Duplicate: 0.02,
		Delay: 0.3, DelayMin: 5 * time.Millisecond, DelayMax: 6 * time.Millisecond,
		Crash: 0.005, Seed: 211,
	}
	s := newTracedChaosStack(t, mix)

	// The plane's default objectives: 30 % of frames delayed 5–6 ms push
	// far more than 0.1 % of calls past the 5 ms call budget, so the first
	// poll after traffic must trip fast-burn.
	plane := lake.NewHealthPlane(s.rt)

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
