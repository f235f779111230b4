package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// Every experiment renders from the virtual clock alone, so its output is
// bit-identical run to run and under any GOMAXPROCS; the goldens pin every
// EXPERIMENTS.md number against refactors of the offload path (Figs 8, 10,
// 11), the gpu.Device utilisation ledger (Figs 1, 13, 15, x-multigpu) and
// the ML cores. fig7 is left out only for its run time (29 s).
func TestInferenceSweepsGolden(t *testing.T) {
	for _, id := range IDs() {
		if id == "fig7" {
			continue
		}
		got, err := Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		path := filepath.Join("testdata", id+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs from %s (rerun with -update only for a deliberate change)\n got:\n%s\nwant:\n%s", id, path, got, want)
		}
	}
}

func TestIDsCoverEveryPaperArtifact(t *testing.T) {
	want := []string{
		"table2", "table3", "table4",
		"fig1", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15",
		"x-automl", "x-multigpu", "x-readahead", "x-tiering",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registered %d experiments, want %d: %v", len(IDs()), len(want), IDs())
	}
}

func TestLookupAndRunUnknown(t *testing.T) {
	if _, ok := Lookup("nope"); ok {
		t.Fatal("unknown id resolved")
	}
	if _, err := Run("nope"); err == nil {
		t.Fatal("unknown id ran")
	}
	e, ok := Lookup("table2")
	if !ok || e.Title == "" {
		t.Fatal("table2 lookup failed")
	}
}

// Every cheap experiment must run and produce non-trivial output. The
// heavyweight ones (fig7, fig9, fig12) are exercised by the benchmark suite
// and their own package tests.
func TestCheapExperimentsProduceOutput(t *testing.T) {
	for _, id := range []string{"table2", "table4", "fig1", "fig6", "fig10", "fig11", "fig13", "fig14", "fig15"} {
		out, err := Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out) < 100 || !strings.Contains(out, id) {
			t.Fatalf("%s produced suspicious output:\n%s", id, out)
		}
	}
}

func TestTable3ReproducesCrossovers(t *testing.T) {
	if testing.Short() {
		t.Skip("table3 sweeps every workload")
	}
	out, err := Run("table3")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"I/O latency prediction", "Page warmth", "Load balancing",
		"Filesystem prefetching", "Malware detection", "Filesystem encryption",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table3 missing row %q:\n%s", want, out)
		}
	}
}

func TestFig8RunsFull(t *testing.T) {
	if testing.Short() {
		t.Skip("fig8 sweeps three model variants")
	}
	out, err := Run("fig8")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "crossover at batch 8") {
		t.Fatalf("fig8 lost the batch-8 crossover:\n%s", out)
	}
}

func TestFig7ShortReplayShape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig7 replays the full workload matrix")
	}
	out, err := Fig7WithLength(1500)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Mixed+") || !strings.Contains(out, "Azure*") {
		t.Fatalf("fig7 output missing workloads:\n%s", out)
	}
}

// The heavyweight experiments run in full (non-short) mode so every
// registered artifact is executable end to end.
func TestHeavyExperimentsProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiments take seconds each")
	}
	for _, id := range []string{"fig9", "fig12", "x-automl", "x-tiering", "x-multigpu", "x-readahead"} {
		out, err := Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out) < 100 || !strings.Contains(out, id) {
			t.Fatalf("%s produced suspicious output:\n%s", id, out)
		}
	}
}
