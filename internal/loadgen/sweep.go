package loadgen

import (
	"fmt"
)

// The knee sweep: replay the same scenario at an ascending ladder of rate
// multipliers and find the capacity knee — the highest offered rate at
// which every tenant class still meets its SLO. This is the open-loop
// answer to "how much can the fleet take": a closed-loop sweep's
// throughput curve bends gently as the driver self-throttles, while the
// open-loop curve holds attainment near 100% until queueing goes
// super-linear and attainment falls off a cliff. The knee is where the
// cliff starts, and the flightrec stage breakdown at the first failing
// rung says which stage (queue, exec, copy, boundary) put it there.

// SweepPoint is one rung of the multiplier ladder.
type SweepPoint struct {
	Multiplier float64
	Result     *Result
}

// SweepResult is a completed knee search.
type SweepResult struct {
	Scenario *Scenario
	Points   []SweepPoint
	// Knee is the last multiplier (ascending) whose replay met every SLO;
	// 0 if even the lowest rung failed.
	Knee float64
	// KneeOffered is the offered rate at the knee in req/s.
	KneeOffered float64
	// FirstFailing is the lowest failing multiplier, 0 if none failed.
	FirstFailing float64
}

// Sweep replays the scenario once per multiplier (each scaled on top of
// the scenario's own RateMultiplier) and locates the knee. Multipliers
// are sorted ascending; each rung is an independent fixed-seed replay, so
// the whole sweep is deterministic.
func Sweep(s *Scenario, multipliers []float64) (*SweepResult, error) {
	if len(multipliers) == 0 {
		return nil, fmt.Errorf("loadgen: sweep needs at least one multiplier")
	}
	// Normalize first: the rungs scale the scenario's *effective* base
	// multiplier, which defaults to 1 only after validation.
	if err := s.Validate(); err != nil {
		return nil, err
	}
	ladder := sortedMultipliers(multipliers)
	for _, m := range ladder {
		if !(m > 0) {
			return nil, fmt.Errorf("loadgen: sweep multiplier %v not positive", m)
		}
	}
	sw := &SweepResult{Scenario: s}
	for _, m := range ladder {
		rung := *s
		rung.RateMultiplier = s.RateMultiplier * m
		r, err := Run(&rung)
		if err != nil {
			return nil, fmt.Errorf("loadgen: sweep x%g: %w", m, err)
		}
		sw.Points = append(sw.Points, SweepPoint{Multiplier: m, Result: r})
		if r.SLOMet() {
			if sw.FirstFailing == 0 { // knee is before the first failure
				sw.Knee = m
				sw.KneeOffered = r.OfferedPerSec
			}
		} else if sw.FirstFailing == 0 {
			sw.FirstFailing = m
		}
	}
	return sw, nil
}

// groups adds the knee group to a results file's group map.
func (sw *SweepResult) groups(into map[string]map[string]float64) {
	g := map[string]float64{
		"points":                   float64(len(sw.Points)),
		"knee_multiplier":          sw.Knee,
		"knee_offered_req_per_s":   sw.KneeOffered,
		"first_failing_multiplier": sw.FirstFailing,
	}
	into["Lakeload/"+sw.Scenario.Name+"/knee"] = g
}

// Summary renders the sweep as an attainment-vs-rate table.
func (sw *SweepResult) Summary() string {
	out := fmt.Sprintf("knee sweep %s: %d points\n", sw.Scenario.Name, len(sw.Points))
	out += fmt.Sprintf("  %10s %14s %12s %14s %6s\n", "multiplier", "offered_req/s", "attainment", "goodput_req/s", "slo")
	for _, p := range sw.Points {
		verdict := "MET"
		if !p.Result.SLOMet() {
			verdict = "MISSED"
		}
		out += fmt.Sprintf("  %10.3g %14.0f %11.3f%% %14.0f %6s\n",
			p.Multiplier, p.Result.OfferedPerSec, 100*p.Result.Attainment,
			p.Result.GoodputPerSec, verdict)
	}
	switch {
	case sw.Knee == 0:
		out += "  no rung met every SLO\n"
	case sw.FirstFailing == 0:
		out += fmt.Sprintf("  knee beyond x%g (%.0f req/s): every rung met every SLO\n", sw.Knee, sw.KneeOffered)
	default:
		out += fmt.Sprintf("  knee at x%g (%.0f req/s); first failing rung x%g\n", sw.Knee, sw.KneeOffered, sw.FirstFailing)
	}
	return out
}
