package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	lake "lakego"
	"lakego/internal/cuda"
	"lakego/internal/nn"
)

// produceDump boots an instrumented runtime, pushes a short remoted
// workload through it, and snapshots the flight recorder — the same
// artifact laked's /flightrec.json endpoint serves.
func produceDump(t *testing.T) *lake.FlightDump {
	t.Helper()
	cfg := lake.DefaultConfig()
	rt, err := lake.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rt.RegisterKernel(lake.VecAddKernel())
	lib := rt.Lib()
	ctx, r := lib.CuCtxCreate("laketrace-test")
	if r != lake.Success {
		t.Fatal(r)
	}
	mod, _ := lib.CuModuleLoad("kernels.cubin")
	fn, r := lib.CuModuleGetFunction(mod, "vecadd")
	if r != lake.Success {
		t.Fatal(r)
	}
	const n = 32
	size := int64(4 * n)
	in, err := rt.Region().Alloc(size)
	if err != nil {
		t.Fatal(err)
	}
	out, err := rt.Region().Alloc(size)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i)
	}
	if err := cuda.PutFloat32s(in.Bytes(), vals); err != nil {
		t.Fatal(err)
	}
	da, _ := lib.CuMemAlloc(size)
	dc, _ := lib.CuMemAlloc(size)
	for i := 0; i < 8; i++ {
		if r := lib.CuMemcpyHtoDShm(da, in, size); r != lake.Success {
			t.Fatal(r)
		}
		if r := lib.CuLaunchKernel(ctx, fn, []uint64{uint64(da), uint64(da), uint64(dc), uint64(n)}); r != lake.Success {
			t.Fatal(r)
		}
		if r := lib.CuMemcpyDtoHShm(out, dc, size); r != lake.Success {
			t.Fatal(r)
		}
	}
	rec := rt.FlightRecorder()
	if rec == nil {
		t.Fatal("telemetry-enabled runtime has no flight recorder")
	}
	return rec.Snapshot("laketrace-test")
}

// writeDump stores the dump the way an operator would save the endpoint's
// body, and returns the file's path.
func writeDump(t *testing.T, dump *lake.FlightDump) string {
	t.Helper()
	b, err := dump.JSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dump.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLaketraceEndToEnd(t *testing.T) {
	path := writeDump(t, produceDump(t))
	var stdout, stderr bytes.Buffer
	chromePath := filepath.Join(t.TempDir(), "trace.json")
	code := run([]string{"-tail", "0.9", "-calls", "-chrome", chromePath, path}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("laketrace %s exited %d: %s", path, code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"calls stitched", "cuLaunchKernel", "cuMemcpyHtoD",
		"tail is dominated by", "wrote Chrome trace",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("laketrace %s output missing %q:\n%s", path, want, out)
		}
	}
	// Every remoted call in this clean run must stitch completely:
	// the summary reads "N calls stitched: N completed, N with ...".
	var stitched, completed, complete int
	line := out[strings.Index(out, "\n")+1:]
	if _, err := fmt.Sscanf(line, "%d calls stitched: %d completed, %d",
		&stitched, &completed, &complete); err != nil {
		t.Fatalf("cannot parse summary line from %s:\n%s", path, out)
	}
	if stitched == 0 || stitched != completed || completed != complete {
		t.Fatalf("clean run did not reconstruct all calls (%d/%d/%d):\n%s",
			stitched, completed, complete, out)
	}
	chrome, err := os.ReadFile(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(chrome, []byte(`"traceEvents"`)) || !bytes.Contains(chrome, []byte(`"ph": "X"`)) {
		t.Fatalf("chrome trace from %s lacks trace_event records", path)
	}
}

func TestLaketraceRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bogus")
	if err := os.WriteFile(path, []byte("not a dump"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{path}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d for garbage input, want 2", code)
	}
	if !strings.Contains(stderr.String(), "not a flight-recorder dump") {
		t.Fatalf("unexpected error output: %s", stderr.String())
	}
}

// produceFleetDump pushes a short storm through a 2-shard fleet, drains
// shard 0 mid-run, and snapshots the fleet's shared flight recorder — the
// routing-enabled sibling of produceDump.
func produceFleetDump(t *testing.T) *lake.FlightDump {
	t.Helper()
	rcfg := lake.DefaultConfig()
	rcfg.NumShards = 2
	rcfg.RouterPolicy = lake.PoolRoundRobin
	bcfg := lake.DefaultBatcherConfig()
	bcfg.MaxBatch = 4
	bcfg.MaxWait = 100 * time.Microsecond
	bcfg.Linger = 0
	f, err := lake.NewFleet(lake.FleetConfig{Runtime: rcfg, Batcher: bcfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	net := nn.New(7, 4, 8, 2)
	if err := f.RegisterModel(lake.BatcherModel{
		Name: "tracenet", InputWidth: 4, OutputWidth: 2, MaxBatch: 8,
		FlopsPerItem: net.Flops(), Forward: net.Forward,
	}); err != nil {
		t.Fatal(err)
	}
	infer := func(tenant string) {
		c := f.Client(tenant)
		for r := 0; r < 8; r++ {
			if _, err := c.Infer("tracenet", [][]float32{{1, 2, 3, float32(r)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	infer("tenant-a")
	infer("tenant-b")
	if _, err := f.Drain(0); err != nil {
		t.Fatal(err)
	}
	infer("tenant-a") // re-routed traffic after the drain
	dump := f.Recorder().TriggerDump("laketrace-fleet-test")
	if dump == nil {
		t.Fatal("fleet has no flight-recorder dump")
	}
	return dump
}

func TestLaketraceFleetRouting(t *testing.T) {
	path := writeDump(t, produceFleetDump(t))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-calls", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("laketrace exited %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"router: ",
		"calls per shard:",
		"migration: shard 0 -> 1",
		"shard", // the -calls column
		"route(w)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("laketrace fleet output missing %q:\n%s", want, out)
		}
	}
}
