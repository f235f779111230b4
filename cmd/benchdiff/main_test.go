package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The test binary doubles as a fake ./benchmark: run with BENCHDIFF_FAKE
// set, it prints a result line for the metrics of BENCHMARK.json instead of
// running the tests. Its role is its file name (parent, child or the A/A
// copy), and each run appends "role workload seed" to BENCHDIFF_FAKE_LOG.
func TestMain(m *testing.M) {
	specPath = filepath.Join("..", "..", "BENCHMARK.json")
	if mode := os.Getenv("BENCHDIFF_FAKE"); mode != "" {
		os.Exit(fakeBenchmark(mode, os.Args[1:]))
	}
	os.Exit(m.Run())
}

// fakeBenchmark answers like `benchmark -workload`. Mode "equal" gives both
// sides the same counts and virtual metrics (the child reads 10% faster on
// the wall); "virt-seed2" moves the child's virt_req_per_s on seed 2;
// "count" gives the child one more attempted request.
func fakeBenchmark(mode string, args []string) int {
	fs := flag.NewFlagSet("fake", flag.ContinueOnError)
	workload := fs.String("workload", "", "")
	seed := fs.Int64("seed", 1, "")
	fs.Int("trace", 0, "")
	fs.Float64("seconds", 0, "")
	fs.String("out", "", "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	role := filepath.Base(os.Args[0])
	if f, err := os.OpenFile(os.Getenv("BENCHDIFF_FAKE_LOG"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644); err == nil {
		fmt.Fprintf(f, "%s %s %d\n", role, *workload, *seed)
		f.Close()
	}
	sp, err := loadSpec()
	if err != nil {
		return 2
	}
	type value struct {
		Value float64 `json:"value"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, 1000, 0, map[string]value{}}
	for _, m := range sp.EndToEnd {
		res.Metrics[m.Name] = value{100}
	}
	if role == "child" {
		res.Metrics["wall_req_per_s"] = value{110}
		switch {
		case mode == "virt-seed2" && *seed == 2:
			res.Metrics["virt_req_per_s"] = value{101}
		case mode == "count":
			res.Attempted++
		}
	}
	line, _ := json.Marshal(res)
	fmt.Printf("== fake %s\n%s\n", *workload, line)
	return 0
}

// fakePair copies the test binary to parent and child in a fresh directory
// and sets the fake's mode and log for this test.
func fakePair(t *testing.T, mode string) (parent, child, log string) {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	parent, child, log = filepath.Join(dir, "parent"), filepath.Join(dir, "child"), filepath.Join(dir, "log")
	for _, dst := range []string{parent, child} {
		if err := copyBinary(self, dst); err != nil {
			t.Fatal(err)
		}
	}
	t.Setenv("BENCHDIFF_FAKE", mode)
	t.Setenv("BENCHDIFF_FAKE_LOG", log)
	// A -race binary sleeps a second at exit by default; the fake runs up
	// to forty times a test.
	t.Setenv("GORACE", strings.TrimSpace(os.Getenv("GORACE")+" atexit_sleep_ms=0"))
	return parent, child, log
}

func TestEqualRunsPassWithEveryMetricInTheTable(t *testing.T) {
	parent, child, _ := fakePair(t, "equal")
	var stdout, stderr bytes.Buffer
	if code := run([]string{parent, child, "open_low"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0\n%s%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var medians map[string]map[string]float64
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &medians); err != nil {
		t.Fatalf("last line is not the medians object: %v\n%s", err, out)
	}
	for _, m := range sp.EndToEnd {
		if strings.Count(out, "\n"+m.Name+" ") != 2 {
			t.Errorf("metric %s is not in both arms' tables", m.Name)
		}
		if _, ok := medians["open_low"][m.Name]; !ok {
			t.Errorf("metric %s is missing from the medians line", m.Name)
		}
	}
	if got := medians["open_low"]["wall_req_per_s"]; got != 110 {
		t.Errorf("child median wall_req_per_s = %v, want 110", got)
	}
	if !strings.Contains(out, " 10/10 ") || !strings.Contains(out, "A/A") {
		t.Errorf("table lacks the child's 10/10 wall win or the A/A arm:\n%s", out)
	}
}

// TestArmsInterleavePairByPair pins the run order: pair i of the A/B arm,
// then pair i of the A/A arm, so the noise floor samples the same stretch
// of host time as the runs it judges. Odd pairs run the first-named binary
// first, even pairs the other; pairs 8-10 run seed 2.
func TestArmsInterleavePairByPair(t *testing.T) {
	parent, child, log := fakePair(t, "equal")
	var stdout, stderr bytes.Buffer
	if code := run([]string{parent, child, "open_low"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0\n%s%s", code, stdout.String(), stderr.String())
	}
	data, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	runs := strings.Split(strings.TrimSpace(string(data)), "\n")
	var want []string
	for i := 1; i <= pairs; i++ {
		seed := 1
		if i > 7 {
			seed = 2
		}
		for _, arm := range [][2]string{{"parent", "child"}, {"child", "aa-child"}} {
			first, second := arm[0], arm[1]
			if i%2 == 0 {
				first, second = second, first
			}
			want = append(want, fmt.Sprintf("%s open_low %d", first, seed), fmt.Sprintf("%s open_low %d", second, seed))
		}
	}
	if strings.Join(runs, "\n") != strings.Join(want, "\n") {
		t.Fatalf("run order:\n%s\nwant:\n%s", strings.Join(runs, "\n"), strings.Join(want, "\n"))
	}
}

func TestVirtualMismatchOnHeldOutSeedFails(t *testing.T) {
	parent, child, _ := fakePair(t, "virt-seed2")
	var stdout, stderr bytes.Buffer
	if code := run([]string{parent, child, "fleet_mllb"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	msg := stderr.String()
	if !strings.Contains(msg, "fleet_mllb pair 8 (seed 2)") || !strings.Contains(msg, "virt_req_per_s differs") {
		t.Fatalf("error does not name the workload, pair 8 and the field: %q", msg)
	}
}

func TestCountMismatchFails(t *testing.T) {
	parent, child, _ := fakePair(t, "count")
	var stdout, stderr bytes.Buffer
	if code := run([]string{parent, child, "call_mllb"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if msg := stderr.String(); !strings.Contains(msg, "call_mllb pair 1 (seed 1): attempted differs") {
		t.Fatalf("error does not name the workload, pair and count: %q", msg)
	}
}

func TestUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"parent"}, {"-baseline", "x.json"}, {"p", "c", "no_such_workload"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%q) exit %d, want 2", args, code)
		}
	}
}
