package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	lake "lakego"
	"lakego/internal/batcher"
	"lakego/internal/core"
	"lakego/internal/cuda"
	"lakego/internal/fleet"
	"lakego/internal/flightrec"
	"lakego/internal/gpupool"
	"lakego/internal/mllb"
	"lakego/internal/nn"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRing holds every event of the golden runs: no domain wraps.
const goldenRing = 1 << 16

// renderStitch writes what the stitcher and laketrace derive from a dump on
// the virtual clock: every timeline field but the two wall-time stages
// (Serialize, Route), the stage means, the breakdown table with the wall
// columns zeroed, the p99 tail attribution and the router summary. Event
// totals and drop counts are left out: they count the recording, not the
// calls.
func renderStitch(w *bytes.Buffer, name string, d *flightrec.Dump) {
	if d.TotalDropped() != 0 {
		panic(fmt.Sprintf("%s: golden dump dropped %d events", name, d.TotalDropped()))
	}
	res := flightrec.Stitch(d)
	fmt.Fprintf(w, "== %s (%q): %d calls, %d completed, %d complete\n",
		name, d.Reason, len(res.Timelines), res.Completed, res.Complete)
	for i := range res.Timelines {
		t := &res.Timelines[i]
		t.Serialize, t.Route = 0, 0
		fmt.Fprintf(w, "tid=%d seq=%d api=%s dev=%d shard=%d result=%d retries=%d routes=%d rerouted=%v "+
			"start=%d end=%d exec=[%d,%d] queue=%d exec=%d copy=%d boundary=%d other=%d "+
			"coalesce=%d@%d completed=%v complete=%v missing=%v\n",
			t.TraceID, t.Seq, apiName(t.API), t.Device, t.Shard, t.Result, t.Retries, t.Routes, t.Rerouted,
			t.Start, t.End, t.ExecStartV, t.ExecEndV, t.Queue, t.Exec, t.Copy, t.Boundary, t.Other,
			t.Coalesce, t.CoalesceStartV, t.Completed, t.Complete, t.Missing)
	}
	fmt.Fprintf(w, "stages: %+v\n", flightrec.MeasureStages(res.Timelines))
	w.WriteString(flightrec.BreakdownTable(res.Timelines, apiName))
	w.WriteString(flightrec.TailAttribution(res.Timelines, 0.99, apiName))
	routerSummary(w, d, res)
}

// goldenMLLB is one runtime serving unbatched MLLB inferences.
func goldenMLLB(t *testing.T, w *bytes.Buffer) {
	cfg := lake.DefaultConfig()
	cfg.FlightRecorderSize = goldenRing
	rt, err := lake.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	bal, err := mllb.New(rt, nn.New(13, mllb.Sizes()...))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		batch := make([][]float32, 1+i%4)
		for r := range batch {
			batch[r] = make([]float32, mllb.InputWidth)
			for k := range batch[r] {
				batch[r][k] = float32((i*7+r*3+k)%17) / 17
			}
		}
		if _, _, err := bal.Runner().RunLAKE(batch, i%3 != 0); err != nil {
			t.Fatal(err)
		}
	}
	renderStitch(w, "mllb", rt.FlightRecorder().Snapshot("golden-mllb"))
}

// goldenFleet drives a 2-shard fleet from one goroutine: a wave of full
// flushes, a wave of deadline flushes, a drain that re-routes the drained
// shard's tenants, and a wave after it.
func goldenFleet(t *testing.T, w *bytes.Buffer) {
	rcfg := core.DefaultConfig()
	rcfg.FlightRecorderSize = goldenRing
	rcfg.NumShards = 2
	rcfg.RouterPolicy = gpupool.RoundRobin
	rcfg.RouterSeed = 42
	f, err := fleet.New(fleet.Config{
		Runtime: rcfg,
		Batcher: batcher.Config{MaxBatch: 4, MaxWait: 100 * time.Microsecond, ClientDepth: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	net := nn.New(7, 4, 8, 2)
	if err := f.RegisterModel(batcher.ModelConfig{
		Name:       "goldennet",
		InputWidth: 4, OutputWidth: 2,
		MaxBatch:     64,
		CPUFixed:     2 * time.Microsecond,
		CPUPerItem:   time.Microsecond,
		FlopsPerItem: 300,
		Forward:      net.Forward,
	}); err != nil {
		t.Fatal(err)
	}
	var clients []*fleet.Client
	for c := 0; c < 8; c++ {
		clients = append(clients, f.Client(fmt.Sprintf("tenant%d", c)))
	}
	wave := func(n, round int) {
		var pend []*fleet.Pending
		for c, cl := range clients[:n] {
			x := []float32{float32(c) / 8, float32(round) / 4, float32(c*round%5) / 5, 0.5}
			p, err := cl.Submit("goldennet", [][]float32{x})
			if err != nil {
				t.Fatal(err)
			}
			pend = append(pend, p)
		}
		for _, p := range pend {
			if _, err := p.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	wave(8, 0) // four tenants a shard: one full flush each
	wave(8, 1)
	wave(6, 2) // three a shard: deadline flushes
	if _, err := f.Drain(0); err != nil {
		t.Fatal(err)
	}
	wave(6, 3) // shard 0's tenants re-route to shard 1
	renderStitch(w, "fleet", f.Recorder().Snapshot("golden-fleet"))
}

// vecaddStack is a runtime with the vecadd kernel staged: call copies one
// input to the device and launches on it.
func vecaddStack(t *testing.T, faults *lake.FaultMix) (rt *lake.Runtime, call func() lake.Result) {
	cfg := lake.DefaultConfig()
	cfg.FlightRecorderSize = goldenRing
	cfg.Faults = faults
	rt, err := lake.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rt.RegisterKernel(lake.VecAddKernel())
	lib := rt.Lib()
	ctx, r := lib.CuCtxCreate("golden-chaos")
	if r != lake.Success {
		t.Fatal(r)
	}
	mod, _ := lib.CuModuleLoad("kernels.cubin")
	fn, r := lib.CuModuleGetFunction(mod, "vecadd")
	if r != lake.Success {
		t.Fatal(r)
	}
	const n = 16
	in, err := rt.Region().Alloc(4 * n)
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
	da, _ := lib.CuMemAlloc(4 * n)
	dc, _ := lib.CuMemAlloc(4 * n)
	return rt, func() lake.Result {
		if r := lib.CuMemcpyHtoDShm(da, in, 4*n); r != lake.Success {
			return r
		}
		return lib.CuLaunchKernel(ctx, fn, []uint64{uint64(da), uint64(da), uint64(dc), n})
	}
}

// goldenChaos crashes lakeD before and after executing a command; each
// call is retried, the second one answered from the journal. Without a
// supervisor the dump lakeD takes inside Pump as it crashes is the last
// one, so two unsupervised runs render those too.
func goldenChaos(t *testing.T, w *bytes.Buffer) {
	for _, afterExec := range []bool{false, true} {
		rt, call := vecaddStack(t, nil)
		if r := call(); r != lake.Success {
			t.Fatal(r)
		}
		rt.Daemon().InjectCrash(afterExec)
		if r := call(); r != lake.ErrNotReady {
			t.Fatalf("unsupervised call across a crash returned %s, want %s", r, lake.ErrNotReady)
		}
		d := rt.FlightRecorder().LastDump()
		if d == nil || d.Reason != "daemon-crash" {
			t.Fatalf("last dump %v, want lakeD's crash dump", d)
		}
		renderStitch(w, fmt.Sprintf("crash dump, after exec %v", afterExec), d)
	}

	rt, call := vecaddStack(t, &lake.FaultMix{Seed: 5}) // plane attached; crashes injected by hand
	for _, crash := range []int{0, 1, 2, 0} {           // 1: before exec, 2: after exec
		if crash > 0 {
			rt.Daemon().InjectCrash(crash == 2)
		}
		if r := call(); r != lake.Success {
			t.Fatal(r)
		}
	}
	if rt.Daemon().Restarts() != 2 || rt.Daemon().Redelivered() == 0 {
		t.Fatalf("%d restarts, %d redelivered: want 2 crashes and a journal redelivery",
			rt.Daemon().Restarts(), rt.Daemon().Redelivered())
	}
	renderStitch(w, "supervised chaos", rt.FlightRecorder().Snapshot("golden-chaos"))
}

// TestStitchGolden pins, byte for byte, every virtual-clock fact the
// stitcher and laketrace derive from three fixed-seed runs: unbatched MLLB
// inferences, a 2-shard fleet with full and deadline flushes and a drain,
// and a run with crashes before and after execution, a journal redelivery
// and retried calls. The recorder may change how it writes an event; it
// may not change what the timelines say.
func TestStitchGolden(t *testing.T) {
	var w bytes.Buffer
	goldenMLLB(t, &w)
	goldenFleet(t, &w)
	goldenChaos(t, &w)
	path := filepath.Join("testdata", "stitch.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, w.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := bytes.Split(w.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < max(len(got), len(wantLines)); i++ {
		var g, wl []byte
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			wl = wantLines[i]
		}
		if !bytes.Equal(g, wl) {
			t.Fatalf("%s line %d (-update re-blesses):\n got %s\nwant %s", path, i+1, g, wl)
		}
	}
}
