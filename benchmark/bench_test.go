package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(i + 1) // 1..100, already sorted
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0, 1}, {0.5, 50}, {0.99, 99}, {1, 100}} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(1..100, %g) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %d, want 0", got)
	}
	if got := percentile(sortedCopy([]int64{9, 1, 5}), 0.5); got != 5 {
		t.Errorf("percentile of unsorted input via sortedCopy = %d, want 5", got)
	}
	if got := median([]float64{5, 1, 100, 3, 4}); got != 4 {
		t.Errorf("median of 5 rounds = %g, want 4 (one slow round must not move it)", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of 4 = %g, want 2.5", got)
	}
	if got := spreadPct([]float64{90, 100, 110}); math.Abs(got-20) > 1e-9 {
		t.Errorf("spreadPct = %g, want 20", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %g, want 0", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// wave [0,100) holds Submit [10,30) and Wait [40,90); Wait holds a
	// nested probe [50,60). A second wave [100,150) has no children.
	spans := []span{
		{Name: "wave", Start: 0, End: 100, Parent: -1},
		{Name: "Submit", Start: 10, End: 30, Parent: 0},
		{Name: "Wait", Start: 40, End: 90, Parent: 0},
		{Name: "probe", Start: 50, End: 60, Parent: 2},
		{Name: "wave", Start: 100, End: 150, Parent: -1},
	}
	sum := summarize(spans)
	want := map[string]spanStats{
		"wave":   {Count: 2, Total: 150, Self: 30 + 50, P50: 50, P99: 100},
		"Submit": {Count: 1, Total: 20, Self: 20, P50: 20, P99: 20},
		"Wait":   {Count: 1, Total: 50, Self: 40, P50: 50, P99: 50},
		"probe":  {Count: 1, Total: 10, Self: 10, P50: 10, P99: 10},
	}
	for name, w := range want {
		if got := sum[name]; got == nil || *got != w {
			t.Errorf("summary[%s] = %+v, want %+v", name, got, w)
		}
	}
	var self int64
	for _, st := range sum {
		self += st.Self
	}
	if self != 150 {
		t.Errorf("self times sum to %d, want the 150 ns the top-level spans cover", self)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer(4)
	a := tr.begin("arrival", 7)
	b := tr.begin("Submit", 7)
	tr.end(b)
	tr.rename(b, "Submit+flush")
	tr.end(a)
	if tr.spans[b].Parent != a || tr.spans[a].Parent != -1 || tr.spans[b].Name != "Submit+flush" {
		t.Errorf("spans = %+v", tr.spans)
	}
	if tr.spans[b].Start < tr.spans[a].Start || tr.spans[b].End > tr.spans[a].End {
		t.Errorf("child not inside parent: %+v", tr.spans)
	}
	var off *tracer // tracing off: every method is a no-op
	off.end(off.begin("x", 0))
}

func TestScheduleIsAPureFunctionOfTheSeed(t *testing.T) {
	sz := sizing{ops: 1.0 / 50, warm: 1}
	for _, sh := range []openShape{openLowShape, openBurstShape} {
		sh.warm = sh.timed / 10
		a, b, c := genSchedule(1, sh, sz), genSchedule(1, sh, sz), genSchedule(2, sh, sz)
		if a.digest() != b.digest() {
			t.Errorf("same seed, different schedules: %x vs %x", a.digest(), b.digest())
		}
		if a.digest() == c.digest() {
			t.Errorf("seeds 1 and 2 gave the same schedule %x", a.digest())
		}
		if !sort.SliceIsSorted(a.arrivals, func(i, j int) bool { return a.arrivals[i].at < a.arrivals[j].at }) {
			t.Error("arrivals not in time order")
		}
		want := sh.rate * a.timedDuration.Seconds() * (1 + sh.burstLen*(sh.burstMul-1))
		if got := float64(a.timed); math.Abs(got-want) > 0.05*want {
			t.Errorf("timed arrivals = %g, want about %g", got, want)
		}
	}
}

func TestAgrees(t *testing.T) {
	ref := []float32{0.25, -0.5}
	if !agrees([]float32{0.2505, -0.5004}, ref) {
		t.Error("logits within 1e-3 and same class must agree")
	}
	if agrees([]float32{0.26, -0.5}, ref) {
		t.Error("a logit 1e-2 off must not agree")
	}
	if agrees([]float32{0.0004, 0.0005}, []float32{0.0005, 0.0004}) {
		t.Error("a flipped class must not agree even within tolerance")
	}
	if agrees([]float32{0.25}, ref) {
		t.Error("a short output must not agree")
	}
}

// TestSmokeEveryWorkload runs each workload traced at 1/200 scale and checks
// that every catalogued metric comes out exactly once, finite, with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	sz := sizing{ops: 1.0 / 200, warm: 1.0 / 200}
	for _, spec := range workloads {
		res, err := runWorkload(spec, 1, sz, true, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		if res.Wrong != 0 || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: attempted=%d failed=%d wrong=%d", spec.name, res.Attempted, res.Failed, res.Wrong)
		}
		for _, set := range []struct {
			defs []metricDef
			vals map[string]float64
		}{{endToEnd, res.EndToEnd}, {perLayer, res.PerLayer}} {
			if len(set.vals) != len(set.defs) {
				t.Errorf("%s: %d metrics emitted, catalogue has %d", spec.name, len(set.vals), len(set.defs))
			}
			var line struct {
				Metrics map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(resultLine(res, set.defs, set.vals)), &line); err != nil {
				t.Fatalf("%s: result line: %v", spec.name, err)
			}
			for _, d := range set.defs {
				v, ok := set.vals[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: %s = %v (emitted=%v), want a finite value", spec.name, d.name, v, ok)
				}
				if got := line.Metrics[d.name]; got.Value == nil || got.Unit != d.unit {
					t.Errorf("%s: result line has %s = %+v, want unit %q", spec.name, d.name, got, d.unit)
				}
			}
			if len(line.Metrics) != len(set.defs) {
				t.Errorf("%s: result line has %d metrics, want %d", spec.name, len(line.Metrics), len(set.defs))
			}
		}
	}
}

const alnum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

func TestCatalogueNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric %s listed twice", d.name)
		}
		seen[d.name] = true
		if strings.Trim(d.name, alnum+"_.-") != "" || d.name == "" || len(d.name) > 64 {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-]{1,64}", d.name)
		}
		if strings.Trim(d.unit, alnum+"_/%.-") != "" || d.unit == "" || len(d.unit) > 16 {
			t.Errorf("unit %q of %s outside [A-Za-z0-9_/%%.-]{1,16}", d.unit, d.name)
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue pins BENCHMARK.json to the code: same
// workloads and reasons, same metric names and units, same repeat bounds.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Command    []string
		Paths      []string
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"benchmark"}) || bj.RunSeconds != refSeconds {
		t.Errorf("paths = %v run_seconds = %g, want [benchmark] and %d", bj.Paths, bj.RunSeconds, refSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, want %s: %s", i, bj.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || (g.Better != "lower" && g.Better != "higher") {
				t.Errorf("%s[%d] = %+v, want %s in %s", kind, i, g, d.name, d.unit)
			}
			if (g.Bound != nil) != bounded {
				t.Errorf("%s: %s bound present = %v, want %v", kind, d.name, g.Bound != nil, bounded)
			}
			if tol, ok := repeatTolerance[d.name]; ok && (g.Bound == nil || *g.Bound != tol) {
				t.Errorf("%s: bound differs from -check-repeat's tolerance %g", d.name, tol)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
}

func TestCompareRuns(t *testing.T) {
	mk := func(wall, virt float64) map[string]*result {
		m := map[string]*result{}
		for _, w := range workloads {
			r := &result{Workload: w.name, Attempted: 10, Completed: 10, EndToEnd: map[string]float64{}}
			for _, d := range endToEnd {
				r.EndToEnd[d.name] = virt
			}
			r.EndToEnd["wall_req_per_s"] = wall
			m[w.name] = r
		}
		return m
	}
	if diffs := compareRuns(mk(100, 5), mk(105, 5)); len(diffs) != 0 {
		t.Errorf("5 %% wall difference flagged: %v", diffs)
	}
	if diffs := compareRuns(mk(100, 5), mk(150, 5)); len(diffs) != len(workloads) {
		t.Errorf("50 %% wall difference: %d diffs, want one per workload", len(diffs))
	}
	if diffs := compareRuns(mk(100, 5), mk(100, 5.0001)); len(diffs) == 0 {
		t.Error("a virtual metric that moved must be flagged")
	}
	b := mk(100, 5)
	b["open_burst"].Shed = 1
	if diffs := compareRuns(mk(100, 5), b); len(diffs) != 1 {
		t.Errorf("count mismatch: %v", diffs)
	}
}
