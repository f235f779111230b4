package lake_test

import (
	"os"
	"sort"
	"strings"
	"testing"

	"lakego/internal/batcher"
	"lakego/internal/core"
	"lakego/internal/faults"
	"lakego/internal/fleet"
	"lakego/internal/lifecycle"
	"lakego/internal/linnos"
	"lakego/internal/nn"
	"lakego/internal/telemetry"
)

// metricCatalogue renders one exposition as `family{label keys} type help`
// lines: the series identity a dashboard or alert binds to, without sample
// values or label values (go_version and shard ordinals vary).
func metricCatalogue(snap telemetry.Snapshot, promText string) []string {
	help := map[string]string{}
	for _, line := range strings.Split(promText, "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			family, h, _ := strings.Cut(rest, " ")
			help[family] = h
		}
	}
	var lines []string
	add := func(name, typ string) {
		family, labels, _ := strings.Cut(name, "{")
		var keys []string
		for _, pair := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
			if k, _, ok := strings.Cut(pair, "="); ok {
				keys = append(keys, k)
			}
		}
		series := family
		if keys != nil {
			series += "{" + strings.Join(keys, ",") + "}"
		}
		lines = append(lines, series+" "+typ+" "+help[family])
	}
	for name := range snap.Counters {
		add(name, "counter")
	}
	for name := range snap.Gauges {
		add(name, "gauge")
	}
	for name := range snap.Histograms {
		add(name, "histogram")
	}
	return lines
}

// TestMetricCatalogueGolden pins every lake_* series the stack registers —
// name, label keys, type and help — across the shapes that register
// distinct sets: a default runtime with a batcher and a lifecycle manager,
// a faulted runtime (supervisor series), a two-device pool (device label)
// and a two-shard fleet's merged exposition (router series, shard label).
// Re-bless with: go test -run TestMetricCatalogueGolden -update .
func TestMetricCatalogueGolden(t *testing.T) {
	small := func() core.Config {
		cfg := core.DefaultConfig()
		cfg.ShmBytes = 16 << 20
		return cfg
	}
	boot := func(cfg core.Config) *core.Runtime {
		t.Helper()
		rt, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		return rt
	}
	var lines []string

	rt := boot(small())
	batcher.New(rt, batcher.Config{})
	if _, err := lifecycle.New(rt, "linnos", nn.New(21, linnos.Base.Sizes()...)); err != nil {
		t.Fatal(err)
	}
	lines = append(lines, metricCatalogue(rt.Telemetry().Snapshot(), rt.Telemetry().PrometheusText())...)

	faulted := small()
	faulted.Faults = &faults.Mix{}
	rt = boot(faulted)
	lines = append(lines, metricCatalogue(rt.Telemetry().Snapshot(), rt.Telemetry().PrometheusText())...)

	pooled := small()
	pooled.NumDevices = 2
	rt = boot(pooled)
	lines = append(lines, metricCatalogue(rt.Telemetry().Snapshot(), rt.Telemetry().PrometheusText())...)

	fcfg := fleet.Config{Runtime: small()}
	fcfg.Runtime.NumShards = 2
	f, err := fleet.New(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	lines = append(lines, metricCatalogue(f.Snapshot(), f.PrometheusText())...)

	sort.Strings(lines)
	var uniq []string
	for i, l := range lines {
		if i == 0 || l != lines[i-1] {
			uniq = append(uniq, l)
		}
	}
	got := strings.Join(uniq, "\n") + "\n"

	const golden = "testdata/metrics.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to bless): %v", err)
	}
	if got != string(want) {
		t.Fatalf("metric catalogue drifted from %s (re-bless with -update if intended)\n--- want ---\n%s--- got ---\n%s",
			golden, want, got)
	}
}
