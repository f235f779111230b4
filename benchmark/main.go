// Command benchmark is the repository's two-clock end-to-end benchmark: five
// workloads over the shipping stack (ring transport, telemetry and flight
// recorder on), each measured end to end in wall and virtual time and, in a
// traced run, layer by layer. See README.md in this directory.
//
//	go run ./benchmark                      all workloads, one sub-process each
//	go run ./benchmark -check-repeat        all workloads twice, compared
//	go run ./benchmark -workload call_mllb -seed 1 -seconds 8 -trace 0
//
// With -workload the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics (-trace 0) or the per-layer metrics (-trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload in-process (default: all, one sub-process each)")
	seed := fs.Int64("seed", 1, "seed for input pools and arrival schedules (1 = default, 2 = held out for later claims)")
	seconds := fs.Float64("seconds", refSeconds, "length of the timed phase the op counts are scaled for")
	trace := fs.Int("trace", 0, "1 = also run the traced pass and probes, and report the per-layer metrics")
	checkRepeat := fs.Bool("check-repeat", false, "run every workload twice and fail unless the runs agree")
	out := fs.String("out", "benchmark/out", "directory for result and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	// One driver goroutine on a 2-core box; the second P is for the runtime.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	if *workload != "" {
		return runOne(*workload, *seed, *seconds, *trace == 1, *out, stdout, stderr)
	}
	return runAll(*seed, *seconds, *checkRepeat, *out, stdout, stderr)
}

// runOne runs a single workload in this process.
func runOne(name string, seed int64, seconds float64, traced bool, out string, stdout, stderr io.Writer) int {
	spec := workloadByName(name)
	if spec == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	res, err := runWorkload(spec, seed, sizing{ops: seconds / refSeconds, warm: 1}, traced, out)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printResult(stdout, res)
	if err := writeJSON(filepath.Join(out, "result-"+name+".json"), res); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defs, vals := endToEnd, res.EndToEnd
	if traced {
		defs, vals = perLayer, res.PerLayer
	}
	fmt.Fprintln(stdout, resultLine(res, defs, vals))
	if res.Wrong > 0 || res.Failed > 0 {
		return 1
	}
	return 0
}

// resultLine is the one-line JSON result. "failed" counts errors and wrong
// outputs; open-loop sheds and rejects are the admission design answering
// overload, and show in slo_attainment_pct and driver.failed_pct instead.
func resultLine(res *result, defs []metricDef, vals map[string]float64) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.name] = value{vals[d.name], d.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Wrong == 0 && res.Failed == 0, res.Attempted, res.Failed + res.Wrong, metrics})
	return string(line)
}

func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "== %s  seed=%d seconds=%g traced=%v\n", res.Workload, res.Seed, res.Seconds, res.Traced)
	fmt.Fprintf(w, "   attempted=%d completed=%d shed=%d rejected=%d failed=%d wrong=%d latency_samples=%d\n",
		res.Attempted, res.Completed, res.Shed, res.Rejected, res.Failed, res.Wrong, res.Samples)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "   %-34s %16.6g %s\n", d.name, res.EndToEnd[d.name], d.unit)
	}
	if res.PerLayer != nil {
		for _, d := range perLayer {
			fmt.Fprintf(w, "   %-34s %16.6g %s\n", d.name, res.PerLayer[d.name], d.unit)
		}
	}
	for _, n := range res.Notes {
		fmt.Fprintln(w, "   FLAG", n)
	}
}

func writeJSON(path string, v interface{}) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs every workload traced, each in a fresh sub-process so no
// workload inherits another's heap, caches or peak RSS.
func runAll(seed int64, seconds float64, checkRepeat bool, out string, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "lakego benchmark: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), seed, seconds)
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	passes := 1
	if checkRepeat {
		passes = 2
	}
	runs := make([]map[string]*result, passes)
	code := 0
	for p := range runs {
		runs[p] = map[string]*result{}
		for _, spec := range workloads {
			cmd := exec.Command(self, "-workload", spec.name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", "1", "-out", out)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", spec.name, err)
				code = 1
				continue
			}
			res := &result{}
			data, err := os.ReadFile(filepath.Join(out, "result-"+spec.name+".json"))
			if err == nil {
				err = json.Unmarshal(data, res)
			}
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", spec.name, err)
				code = 1
				continue
			}
			runs[p][spec.name] = res
		}
	}
	if err := writeJSON(filepath.Join(out, "results.json"), runs[passes-1]); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if checkRepeat && code == 0 {
		if diffs := compareRuns(runs[0], runs[1]); len(diffs) > 0 {
			for _, d := range diffs {
				fmt.Fprintln(stdout, "REPEAT MISMATCH", d)
			}
			return 1
		}
		fmt.Fprintln(stdout, "check-repeat: both passes agree")
	}
	return code
}

// commit is the VCS revision stamped into the binary, when there is one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// repeatTolerance is how far a wall, CPU or memory metric may differ between
// two runs of the same code (BENCHMARK.json's bounds). Every metric not
// listed — virtual time, counts, attainment — must repeat exactly.
var repeatTolerance = map[string]float64{
	"setup_s":             0.25,
	"wall_req_per_s":      0.25,
	"cpu_us_per_req":      0.25,
	"allocs_per_req":      0.01,
	"alloc_bytes_per_req": 0.02,
	"peak_rss_mb":         0.10,
}

// compareRuns lists the disagreements between two passes.
func compareRuns(a, b map[string]*result) []string {
	var diffs []string
	for _, spec := range workloads {
		ra, rb := a[spec.name], b[spec.name]
		if ra == nil || rb == nil {
			diffs = append(diffs, spec.name+": missing result")
			continue
		}
		counts := func(r *result) [7]int64 {
			return [7]int64{r.Attempted, r.Completed, r.Shed, r.Rejected, r.Failed, r.Wrong, int64(r.Samples)}
		}
		if counts(ra) != counts(rb) {
			diffs = append(diffs, fmt.Sprintf("%s: counts %v vs %v", spec.name, counts(ra), counts(rb)))
		}
		for _, d := range endToEnd {
			x, y := ra.EndToEnd[d.name], rb.EndToEnd[d.name]
			if tol, ok := repeatTolerance[d.name]; ok {
				if math.Abs(x-y) > tol*math.Max(math.Abs(x), math.Abs(y)) {
					diffs = append(diffs, fmt.Sprintf("%s: %s %g vs %g (tolerance %g %%)", spec.name, d.name, x, y, tol*100))
				}
			} else if x != y {
				diffs = append(diffs, fmt.Sprintf("%s: %s %g vs %g (must repeat exactly)", spec.name, d.name, x, y))
			}
		}
	}
	sort.Strings(diffs)
	return diffs
}
