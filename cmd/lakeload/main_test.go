package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestRunSmokeDeterministic pins the CLI's -out contract end to end: the
// smoke scenario plus a knee sweep writes the results JSON, byte-identical
// run over run, with the knee where the smoke budgets put it.
func TestRunSmokeDeterministic(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	for _, path := range []string{a, b} {
		if err := run("smoke", "1,2", path, "ci", 0, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		t.Fatalf("results differ across identical runs:\n%s\nvs\n%s", da, db)
	}

	res := decodeResults(t, da)
	runG, ok := res["Lakeload/smoke"]
	if !ok {
		t.Fatalf("missing Lakeload/smoke group: %v", res)
	}
	if runG["arrivals"] <= 0 || runG["completed"] <= 0 || runG["offered_req_per_s"] <= 0 {
		t.Fatalf("run metrics not populated: %v", runG)
	}
	if runG["slo_attainment_pct"] <= 0 || runG["slo_attainment_pct"] > 100 {
		t.Fatalf("attainment out of range: %v", runG)
	}
	stages, ok := res["Lakeload/smoke/stages"]
	if !ok {
		t.Fatalf("missing stages group: %v", res)
	}
	for _, key := range []string{"calls", "per_call_ns", "exec_ns_mean", "boundary_ns_mean"} {
		if stages[key] <= 0 {
			t.Fatalf("stage metric %s not populated: %v", key, stages)
		}
	}
	knee, ok := res["Lakeload/smoke/knee"]
	if !ok {
		t.Fatalf("missing knee group: %v", res)
	}
	// The smoke budgets are calibrated so the base rate passes and the
	// first doubling sheds: the knee must sit at x1 with x2 failing.
	if knee["knee_multiplier"] != 1 || knee["first_failing_multiplier"] != 2 {
		t.Fatalf("smoke knee drifted (recalibrate budgets): %v", knee)
	}
	for _, tenant := range []string{"linnos", "kml", "mllb", "malware", "ecryptfs"} {
		g, ok := res["Lakeload/smoke/tenant="+tenant]
		if !ok {
			t.Fatalf("missing tenant group %s: %v", tenant, res)
		}
		if g["arrivals"] <= 0 || g["p99_us"] <= 0 {
			t.Fatalf("tenant %s metrics not populated: %v", tenant, g)
		}
	}
}

// TestResultsGolden pins every value of CI's lakeload run (the smoke
// scenario with the 0.5,1,2,4,8 knee sweep) against testdata/results.golden,
// which CI also compares byte for byte with the file the CLI writes. The
// replay is virtual-clock deterministic, so any difference is a change in
// behaviour: goodput, SLO attainment, a tenant's percentiles, a stage mean.
// Regenerate with `go test ./cmd/lakeload -run TestResultsGolden -update`
// after an intended change, and say why in the change description.
func TestResultsGolden(t *testing.T) {
	golden := filepath.Join("testdata", "results.golden")
	out := filepath.Join(t.TempDir(), "r.json")
	if err := run("smoke", "0.5,1,2,4,8", out, "", 0, 0, false); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("results differ from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// decodeResults parses the results JSON's group -> metric -> value map.
func decodeResults(t *testing.T, data []byte) map[string]map[string]float64 {
	t.Helper()
	var res struct {
		Note       string                        `json:"note"`
		Benchmarks map[string]map[string]float64 `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("results are not group -> metric -> value JSON: %v", err)
	}
	return res.Benchmarks
}

// TestScenarioFileRoundTrip drives the file path of -scenario: a canonical
// dump of a builtin replays from disk identically to the builtin itself.
func TestScenarioFileRoundTrip(t *testing.T) {
	s, err := loadScenario("storm")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	canon, err := s.Canon()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "storm.json")
	if err := os.WriteFile(file, canon, 0o644); err != nil {
		t.Fatal(err)
	}
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	if err := run("storm", "", a, "x", 0, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := run(file, "", b, "x", 0, 0, false); err != nil {
		t.Fatal(err)
	}
	da, _ := os.ReadFile(a)
	db, _ := os.ReadFile(b)
	if !bytes.Equal(da, db) {
		t.Fatalf("file replay differs from builtin replay:\n%s\nvs\n%s", da, db)
	}
}

func TestLoadScenarioErrors(t *testing.T) {
	if _, err := loadScenario("no-such-scenario"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadScenario(bad); err == nil {
		t.Fatal("malformed scenario file accepted")
	}
}

func TestParseSweep(t *testing.T) {
	ms, err := parseSweep(" 0.5, 1 ,2 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 || ms[0] != 0.5 || ms[1] != 1 || ms[2] != 2 {
		t.Fatalf("parseSweep = %v", ms)
	}
	for _, bad := range []string{"", ",,", "1,x"} {
		if _, err := parseSweep(bad); err == nil {
			t.Fatalf("parseSweep(%q) accepted", bad)
		}
	}
}
