package telemetry

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite exposition golden files")

// TestExpositionGolden pins the full Prometheus and JSON exposition of a
// registry carrying the build-info/uptime series plus one of every
// instrument type, so a format drift (bucket rendering, TYPE lines, JSON
// field names) fails loudly instead of silently breaking scrapers.
// Re-bless with: go test ./internal/telemetry/ -run Golden -update-golden
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Gauge(`lake_build_info{version="v0.10.0",go_version="go1.24"}`,
		"constant 1; build identity carried in labels").Set(1)
	r.GaugeFunc("lake_uptime_vns",
		"virtual nanoseconds since the runtime clock started",
		func() int64 { return 4_000_000 })
	r.GaugeFunc("lake_uptime_seconds",
		"wall seconds since the process booted",
		func() int64 { return 17 })
	r.Counter(`lake_demo_total{shard="0"}`, "demo counter").Add(3)
	h := r.Histogram("lake_demo_latency_ns", "demo latency", []int64{1000, 10000})
	h.Observe(500)
	h.Observe(5000)
	h.Observe(50000)

	prom := r.PrometheusText()
	jsonBytes, err := r.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(jsonBytes, &snap); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}

	compareGolden(t, "exposition.prom", []byte(prom))
	compareGolden(t, "exposition.json", append(jsonBytes, '\n'))
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update-golden to bless): %v", path, err)
	}
	if string(want) != string(got) {
		t.Fatalf("exposition drifted from golden %s\n--- want ---\n%s\n--- got ---\n%s", path, want, got)
	}
}
