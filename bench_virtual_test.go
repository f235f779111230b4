package lake_test

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"lakego/internal/core"
)

// TestBenchVirtualGolden pins, with no tolerance, every virtual-clock row of
// the go test -bench benchmarks that reads one value on every run: in 20
// fresh processes each at GOMAXPROCS=1 and 2, with and without -race. Those
// are the one-client batched run, the unbatched throughput at every client
// count and the modeled cost of one remoted call on each channel row. The
// rows left out depend on which goroutines the wall-clock linger lets into
// a flush; they are listed under ROADMAP item 1 and join this golden when
// it fixes them.
// Re-bless with: go test -run TestBenchVirtualGolden -update .
func TestBenchVirtualGolden(t *testing.T) {
	var b strings.Builder
	row := func(bench, metric string, v float64) {
		fmt.Fprintf(&b, "%s %s %s\n", bench, metric, strconv.FormatFloat(v, 'g', -1, 64))
	}
	for _, clients := range []int{1, 8, 32, 64} {
		name := fmt.Sprintf("BenchmarkBatchedInference/clients=%d", clients)
		unbatched := runUnbatchedLinnOS(t, clients, batchBenchPerClient)
		if clients == 1 {
			batched := runBatchedLinnOS(t, clients, batchBenchPerClient)
			row(name, "batched_req_per_s", batched.throughput())
			row(name, "speedup", batched.throughput()/unbatched.throughput())
			row(name, "batched_p99_us", float64(batched.p99().Microseconds()))
			row(name, "unbatched_p99_us", float64(unbatched.p99().Microseconds()))
		}
		row(name, "unbatched_req_per_s", unbatched.throughput())
	}
	row("BenchmarkPerfRemotedCall", "vns_per_call", remotedCallVNS(t, core.DefaultConfig(), 100))
	row("BenchmarkPerfRemotedCallRing", "vns_per_call", remotedCallVNS(t, ringConfig(), 100))
	got := b.String()

	const golden = "testdata/bench_virtual.golden"
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
		t.Fatalf("virtual benchmark rows drifted from %s (re-bless with -update if intended)\n--- want ---\n%s--- got ---\n%s",
			golden, want, got)
	}
}
