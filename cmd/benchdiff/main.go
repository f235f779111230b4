// Command benchdiff runs the paired-run protocol over a parent and a child
// build of ./benchmark and prints the table a performance change reports:
//
//	go build -o /tmp/bench-child ./benchmark   # and the parent, from a clone
//	go run ./cmd/benchdiff /tmp/bench-parent /tmp/bench-child [WORKLOAD...]
//
// Workloads (all when none is named), end-to-end metrics with their
// direction and bound, and the run length come from BENCHMARK.json in the
// working directory. Each workload runs ten pairs, odd pairs parent first,
// pairs 8-10 on the held-out seed 2; every run is `BIN -workload W -seed S
// -trace 0 -seconds RUN_SECONDS -out TMP`, read from its last output line.
// Counts and virtual metrics repeat exactly, so within a pair correct,
// attempted, failed, slo_attainment_pct and every virt_* metric must be
// equal; a difference exits 1 naming the workload, pair and field.
//
// Per metric the table gives each side's q1, median and q3, the change of
// the medians, the pairs the child won (ties count for neither), whether the
// medians are further apart than the parent's interquartile range, and
// whether the child is worse than the bound. The A/A arm, the child against
// a byte copy of itself, is the noise floor: its pair i runs right after
// the A/B arm's pair i, so both arms sample the same stretch of host time,
// and its table follows the A/B one. Last come both binaries'
// addresses mod 64 of the functions whose placement moves wall time, and a
// JSON line of the child's medians per workload.
//
// Exit status: 0 when every pair agrees and no A/B median is worse than
// its bound, 1 otherwise, 2 on a usage error.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// specPath is the benchmark contract, relative to the working directory.
var specPath = "BENCHMARK.json"

const (
	pairs    = 10
	heldOut  = 3 // the last heldOut pairs run seedHeld instead of seed 1
	seedHeld = 2
)

// placed are the nn kernels and the harness's calibration kernel: their
// address mod 64 has moved wall metrics by several percent on unchanged code.
var placed = []string{
	"lakego/internal/nn.dense",
	"lakego/internal/nn.denseRows4",
	"lakego/internal/nn.denseRows8",
	"main.(*calibrator).pass",
}

type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// exact reports whether the metric comes from the virtual clock and so must
// read the same on both sides of a pair.
func (m metric) exact() bool {
	return strings.HasPrefix(m.Name, "virt_") || m.Name == "slo_attainment_pct"
}

// beats reports whether a is strictly better than b.
func (m metric) beats(a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

type workload struct {
	Name string `json:"name"`
}

type spec struct {
	RunSeconds float64    `json:"run_seconds"`
	Workloads  []workload `json:"workloads"`
	EndToEnd   []metric   `json:"end_to_end"`
}

// outcome is the result line `benchmark -workload` prints last.
type outcome struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func loadSpec() (*spec, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", specPath, err)
	}
	if sp.RunSeconds <= 0 || len(sp.Workloads) == 0 || len(sp.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: needs run_seconds, workloads and end_to_end", specPath)
	}
	return &sp, nil
}

// runOnce runs one binary and decodes its result line, which the benchmark
// prints even when it exits 1 for wrong or failed outputs.
func runOnce(bin, workload string, seed int64, sp *spec, out string) (*outcome, error) {
	cmd := exec.Command(bin, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-trace", "0", "-seconds", strconv.FormatFloat(sp.RunSeconds, 'g', -1, 64), "-out", out)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var o outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
		return nil, fmt.Errorf("%s -workload %s -seed %d: no result line (%v, exit: %v): %s",
			bin, workload, seed, err, runErr, strings.TrimSpace(stderr.String()))
	}
	for _, m := range sp.EndToEnd {
		if _, ok := o.Metrics[m.Name]; !ok {
			return nil, fmt.Errorf("%s -workload %s -seed %d: metric %s missing", bin, workload, seed, m.Name)
		}
	}
	return &o, nil
}

// agree checks that the two runs of a pair did the same virtual work.
func agree(sp *spec, p, c *outcome) error {
	type field struct {
		name string
		p, c any
	}
	fields := []field{{"correct", p.Correct, c.Correct}, {"attempted", p.Attempted, c.Attempted}, {"failed", p.Failed, c.Failed}}
	for _, m := range sp.EndToEnd {
		if m.exact() {
			fields = append(fields, field{m.Name, p.Metrics[m.Name].Value, c.Metrics[m.Name].Value})
		}
	}
	for _, f := range fields {
		if f.p != f.c {
			return fmt.Errorf("%s differs: parent %v, child %v", f.name, f.p, f.c)
		}
	}
	return nil
}

// arm compares runs of binary a (the parent side) with runs of b (the
// child side); p and c collect them in pair order.
type arm struct {
	name, a, b string
	p, c       []*outcome
}

// runPairs runs the protocol for one workload over every arm, pair by pair:
// pair i of each arm runs, in arm order, before pair i+1 of any.
func runPairs(arms []*arm, workload string, sp *spec, out string) error {
	for i := 1; i <= pairs; i++ {
		seed := int64(1)
		if i > pairs-heldOut {
			seed = seedHeld
		}
		for _, a := range arms {
			bins := [2]string{a.a, a.b}
			var got [2]*outcome
			for k := 0; k < 2; k++ {
				side := k
				if i%2 == 0 {
					side = 1 - k
				}
				var err error
				if got[side], err = runOnce(bins[side], workload, seed, sp, out); err != nil {
					return fmt.Errorf("%s %w", a.name, err)
				}
			}
			if err := agree(sp, got[0], got[1]); err != nil {
				return fmt.Errorf("%s %s pair %d (seed %d): %w", a.name, workload, i, seed, err)
			}
			a.p, a.c = append(a.p, got[0]), append(a.c, got[1])
		}
	}
	return nil
}

// quartiles returns q1, the median and q3: the medians of the lower half,
// the whole and the upper half.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	median := func(s []float64) float64 { return (s[(len(s)-1)/2] + s[len(s)/2]) / 2 }
	h := len(s) / 2
	return median(s[:h]), median(s), median(s[len(s)-h:])
}

// table prints one arm's per-metric rows and returns the child's medians
// and whether any child median is worse than its metric's bound.
func table(w io.Writer, sp *spec, p, c []*outcome) (medians map[string]float64, worse bool) {
	medians = make(map[string]float64, len(sp.EndToEnd))
	fmt.Fprintf(w, "%-20s %12s %12s %12s %12s %12s %12s %8s %6s %5s %6s\n",
		"metric", "parent q1", "median", "q3", "child q1", "median", "q3", "Δ", "better", ">IQR", "bound")
	for _, m := range sp.EndToEnd {
		pv, cv := make([]float64, len(p)), make([]float64, len(c))
		wins := 0
		for i := range p {
			pv[i], cv[i] = p[i].Metrics[m.Name].Value, c[i].Metrics[m.Name].Value
			if m.beats(cv[i], pv[i]) {
				wins++
			}
		}
		pq1, pmed, pq3 := quartiles(pv)
		cq1, cmed, cq3 := quartiles(cv)
		medians[m.Name] = cmed
		delta := 0.0
		if pmed != 0 {
			delta = 100 * (cmed/pmed - 1)
		}
		apart := "no"
		if math.Abs(cmed-pmed) > pq3-pq1 {
			apart = "yes"
		}
		limit, bound := pmed*(1+m.Bound), "ok"
		if m.Better == "higher" {
			limit = pmed * (1 - m.Bound)
		}
		if m.beats(limit, cmed) {
			bound, worse = "WORSE", true
		}
		fmt.Fprintf(w, "%-20s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %+7.2f%% %3d/%-2d %5s %6s\n",
			m.Name, pq1, pmed, pq3, cq1, cmed, cq3, delta, wins, len(p), apart, bound)
	}
	return medians, worse
}

// placement returns each placed function's address mod 64 in bin, read
// with `go tool nm`, or "-" where the binary lacks it or nm fails.
func placement(bin string) []string {
	got := make([]string, len(placed))
	for i := range got {
		got[i] = "-"
	}
	out, _ := exec.Command("go", "tool", "nm", bin).Output()
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		i := slices.Index(placed, strings.TrimSuffix(f[2], ".abi0"))
		if addr, err := strconv.ParseUint(f[0], 16, 64); i >= 0 && err == nil {
			got[i] = strconv.FormatUint(addr%64, 10)
		}
	}
	return got
}

// copyBinary writes a byte copy of src to dst for the A/A arm.
func copyBinary(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o755)
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 2 || strings.HasPrefix(args[0], "-") {
		fmt.Fprintln(stderr, "usage: benchdiff PARENT CHILD [WORKLOAD...]  (PARENT and CHILD are `go build ./benchmark` binaries)")
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	workloads := args[2:]
	if len(workloads) == 0 {
		for _, wl := range sp.Workloads {
			workloads = append(workloads, wl.Name)
		}
	}
	for _, name := range workloads {
		if !slices.Contains(sp.Workloads, workload{name}) {
			fmt.Fprintf(stderr, "benchdiff: workload %q is not in %s\n", name, specPath)
			return 2
		}
	}
	parent, child := args[0], args[1]
	tmp, err := os.MkdirTemp("", "benchdiff")
	twin := filepath.Join(tmp, "aa-"+filepath.Base(child))
	if err == nil {
		defer os.RemoveAll(tmp)
		err = copyBinary(child, twin)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 1
	}

	status := 0
	medians := map[string]map[string]float64{}
	for _, wl := range workloads {
		arms := []*arm{{name: "A/B", a: parent, b: child}, {name: "A/A", a: child, b: twin}}
		if err := runPairs(arms, wl, sp, tmp); err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 1
		}
		for _, arm := range arms {
			fmt.Fprintf(stdout, "== %s %s: %d pairs, odd pairs %s first, pairs %d-%d seed %d\n",
				wl, arm.name, pairs, filepath.Base(arm.a), pairs-heldOut+1, pairs, seedHeld)
			meds, worse := table(stdout, sp, arm.p, arm.c)
			if arm.name == "A/B" {
				medians[wl] = meds
				if worse {
					status = 1
				}
			}
		}
	}

	pp, cp := placement(parent), placement(child)
	fmt.Fprintf(stdout, "== placement (address mod 64)\n%-32s %7s %7s\n", "function", "parent", "child")
	for i, fn := range placed {
		fmt.Fprintf(stdout, "%-32s %7s %7s\n", fn, pp[i], cp[i])
	}
	line, err := json.Marshal(medians)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return status
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
