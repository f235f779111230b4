package loadgen

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"lakego/internal/flightrec"
)

// ClassResult is one tenant class's replay outcome.
type ClassResult struct {
	Name      string
	Mix       string
	Clients   int
	Arrivals  int64
	Completed int64
	Shed      int64 // arrivals dropped by the open-loop discipline or admission
	Failed    int64 // submissions whose Wait errored (fault plane)
	// PeakOutstanding is the high-water mark of in-flight requests over
	// the class's tenant groups — the admission-invariant witness: it can
	// never exceed the class's per-group MaxOutstanding cap.
	PeakOutstanding int64

	// Sojourn quantiles over completed requests, measured from the
	// scheduled arrival (virtual).
	P50, P99, P999, Max time.Duration

	// WithinP99/WithinP999 count arrivals served inside each budget;
	// sheds and failures count against attainment by never counting in.
	WithinP99, WithinP999 int64
	// AttainP99/AttainP999 are the fractions of *arrivals* within budget.
	AttainP99, AttainP999 float64
	// SLOMet is the gate: >=99% of arrivals within the p99 budget and,
	// when a p999 budget is set, >=99.9% within it.
	SLOMet bool
}

// measure computes quantiles and attainment from the class's samples.
func (c *ClassResult) measure(samples []int64, tc *TenantClass) {
	if len(samples) > 0 {
		s := append([]int64(nil), samples...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		c.P50 = quantile(s, 0.50)
		c.P99 = quantile(s, 0.99)
		c.P999 = quantile(s, 0.999)
		c.Max = time.Duration(s[len(s)-1])
		budget99 := int64(tc.SLOp99US * 1e3)
		budget999 := int64(tc.SLOp999US * 1e3)
		c.WithinP99 = int64(sort.Search(len(s), func(i int) bool { return s[i] > budget99 }))
		if budget999 > 0 {
			c.WithinP999 = int64(sort.Search(len(s), func(i int) bool { return s[i] > budget999 }))
		}
	}
	if c.Arrivals > 0 {
		c.AttainP99 = float64(c.WithinP99) / float64(c.Arrivals)
		c.AttainP999 = float64(c.WithinP999) / float64(c.Arrivals)
	}
	c.SLOMet = c.AttainP99 >= 0.99 && (tc.SLOp999US == 0 || c.AttainP999 >= 0.999)
	if c.Arrivals == 0 {
		c.SLOMet = true // vacuously: an idle class cannot fail its SLO
	}
}

// quantile returns the q'th sojourn quantile of sorted ns samples
// (nearest-rank, the same convention the micro-bench suite uses).
func quantile(sorted []int64, q float64) time.Duration {
	rank := int(q*float64(len(sorted))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return time.Duration(sorted[rank])
}

// Result is one scenario replay's outcome.
type Result struct {
	Scenario *Scenario
	Shards   int
	Clients  int // population actually simulated (class fractions rounded down)

	Arrivals  int64
	Completed int64
	Shed      int64
	Failed    int64
	Churned   int64

	VirtualElapsed time.Duration
	OfferedPerSec  float64 // arrivals over the scheduled window
	GoodputPerSec  float64 // completions over elapsed virtual time
	Attainment     float64 // fraction of all arrivals within their class's p99 budget

	Classes []ClassResult

	// Stages is the flightrec-stitched virtual stage breakdown (queue /
	// exec / copy / boundary means) over the recorded slice of the run.
	Stages flightrec.StageMeans

	// Router counters.
	Placements, Reroutes, Rejects int64
}

// SLOMet reports whether every class met its budget.
func (r *Result) SLOMet() bool {
	for i := range r.Classes {
		if !r.Classes[i].SLOMet {
			return false
		}
	}
	return true
}

// benchFile is the results file's layout: named groups of named values,
// pinned byte for byte by cmd/lakeload's results.golden.
type benchFile struct {
	Note       string                        `json:"note,omitempty"`
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

// groups renders the result as results-file groups under
// "Lakeload/<scenario>". Every value is virtual-clock derived, so a
// fixed-seed scenario produces byte-identical groups run over run.
func (r *Result) groups(into map[string]map[string]float64) {
	prefix := "Lakeload/" + r.Scenario.Name
	run := map[string]float64{
		"clients":            float64(r.Clients),
		"arrivals":           float64(r.Arrivals),
		"completed":          float64(r.Completed),
		"shed":               float64(r.Shed),
		"failed":             float64(r.Failed),
		"churned":            float64(r.Churned),
		"virtual_ns":         float64(r.VirtualElapsed),
		"offered_req_per_s":  r.OfferedPerSec,
		"goodput_req_per_s":  r.GoodputPerSec,
		"slo_attainment_pct": 100 * r.Attainment,
	}
	into[prefix] = run
	for i := range r.Classes {
		c := &r.Classes[i]
		into[fmt.Sprintf("%s/tenant=%s", prefix, c.Name)] = map[string]float64{
			"clients":             float64(c.Clients),
			"arrivals":            float64(c.Arrivals),
			"completed":           float64(c.Completed),
			"shed":                float64(c.Shed),
			"peak_outstanding":    float64(c.PeakOutstanding),
			"p50_us":              float64(c.P50) / 1e3,
			"p99_us":              float64(c.P99) / 1e3,
			"p999_us":             float64(c.P999) / 1e3,
			"max_us":              float64(c.Max) / 1e3,
			"p99_attainment_pct":  100 * c.AttainP99,
			"p999_attainment_pct": 100 * c.AttainP999,
		}
	}
	if r.Stages.Calls > 0 {
		into[prefix+"/stages"] = map[string]float64{
			"calls":            float64(r.Stages.Calls),
			"per_call_ns":      r.Stages.PerCallNS,
			"queue_ns_mean":    r.Stages.QueueNS,
			"exec_ns_mean":     r.Stages.ExecNS,
			"copy_ns_mean":     r.Stages.CopyNS,
			"boundary_ns_mean": r.Stages.BoundaryNS,
		}
	}
	into[prefix+"/fleet"] = map[string]float64{
		"shards":     float64(r.Shards),
		"placements": float64(r.Placements),
		"reroutes":   float64(r.Reroutes),
		"rejects":    float64(r.Rejects),
	}
}

// BenchJSON serializes results (and an optional knee sweep) as the
// results file. Keys are emitted sorted by encoding/json, so the
// bytes are canonical for a fixed seed.
func BenchJSON(note string, results []*Result, sweep *SweepResult) ([]byte, error) {
	f := benchFile{Note: note, Benchmarks: make(map[string]map[string]float64)}
	for _, r := range results {
		r.groups(f.Benchmarks)
	}
	if sweep != nil {
		sweep.groups(f.Benchmarks)
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Summary renders the human-facing report.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s: %d clients, %d arrivals in %v virtual (offered %.0f req/s)\n",
		r.Scenario.Name, r.Clients, r.Arrivals, r.Scenario.Duration(), r.OfferedPerSec)
	fmt.Fprintf(&b, "  completed %d  shed %d  failed %d  churned %d  goodput %.0f req/s  attainment %.3f%%\n",
		r.Completed, r.Shed, r.Failed, r.Churned, r.GoodputPerSec, 100*r.Attainment)
	fmt.Fprintf(&b, "  %-12s %8s %9s %6s %10s %10s %10s %9s %9s  %s\n",
		"tenant", "arrivals", "completed", "shed", "p50_us", "p99_us", "p999_us", "att99%", "att999%", "slo")
	for i := range r.Classes {
		c := &r.Classes[i]
		verdict := "MET"
		if !c.SLOMet {
			verdict = "MISSED"
		}
		fmt.Fprintf(&b, "  %-12s %8d %9d %6d %10.1f %10.1f %10.1f %8.3f%% %8.3f%%  %s\n",
			c.Name, c.Arrivals, c.Completed, c.Shed,
			float64(c.P50)/1e3, float64(c.P99)/1e3, float64(c.P999)/1e3,
			100*c.AttainP99, 100*c.AttainP999, verdict)
	}
	if r.Stages.Calls > 0 {
		fmt.Fprintf(&b, "  stages (mean us over %d recorded calls): queue %.1f  exec %.1f  copy %.1f  boundary %.1f\n",
			r.Stages.Calls, r.Stages.QueueNS/1e3, r.Stages.ExecNS/1e3,
			r.Stages.CopyNS/1e3, r.Stages.BoundaryNS/1e3)
	}
	fmt.Fprintf(&b, "  fleet: %d shards, %d placements, %d reroutes, %d admission rejects\n",
		r.Shards, r.Placements, r.Reroutes, r.Rejects)
	return b.String()
}
