// Command lakebench regenerates the tables and figures of the LAKE paper's
// evaluation.
//
// Usage:
//
//	lakebench -list            enumerate experiments
//	lakebench -exp fig7        run one experiment
//	lakebench -exp all         run everything (several minutes)
//	lakebench -metrics         run an instrumented workload and dump its
//	                           telemetry (Prometheus text + per-API stage
//	                           breakdown from the flight recorder)
//
// Output is printed as the same rows/series the paper reports; see
// EXPERIMENTS.md for paper-vs-measured commentary.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	lake "lakego"
	"lakego/internal/cuda"
	"lakego/internal/experiments"
	"lakego/internal/flightrec"
	"lakego/internal/linnos"
	"lakego/internal/nn"
	"lakego/internal/remoting"
)

// bootInstrumented boots a default runtime and drives the deterministic
// demo workload through it: 32 remoted copy-launch-copy rounds over the
// built-in vector-add kernel. Every cost
// in the run is virtual-clock modeled, so repeated runs produce identical
// numbers.
func bootInstrumented(devices int, poolPolicy lake.PoolPolicy) (*lake.Runtime, error) {
	cfg := lake.DefaultConfig()
	cfg.NumDevices = devices
	cfg.PoolPolicy = poolPolicy
	rt, err := lake.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := driveWorkload(rt); err != nil {
		rt.Close()
		return nil, err
	}
	return rt, nil
}

func driveWorkload(rt *lake.Runtime) error {
	rt.RegisterKernel(lake.VecAddKernel())
	lib := rt.Lib()
	ctx, r := lib.CuCtxCreate("lakebench-metrics")
	if r != lake.Success {
		return r.Err()
	}
	mod, _ := lib.CuModuleLoad("kernels.cubin")
	fn, r := lib.CuModuleGetFunction(mod, "vecadd")
	if r != lake.Success {
		return r.Err()
	}
	const n = 128
	size := int64(4 * n)
	in, err := rt.Region().Alloc(size)
	if err != nil {
		return err
	}
	out, err := rt.Region().Alloc(size)
	if err != nil {
		return err
	}
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i)
	}
	if err := cuda.PutFloat32s(in.Bytes(), vals); err != nil {
		return err
	}
	da, _ := lib.CuMemAlloc(size)
	dc, _ := lib.CuMemAlloc(size)
	for i := 0; i < 32; i++ {
		if r := lib.CuMemcpyHtoDShm(da, in, size); r != lake.Success {
			return r.Err()
		}
		if r := lib.CuLaunchKernel(ctx, fn, []uint64{uint64(da), uint64(da), uint64(dc), uint64(n)}); r != lake.Success {
			return r.Err()
		}
		if r := lib.CuMemcpyDtoHShm(out, dc, size); r != lake.Success {
			return r.Err()
		}
	}
	if _, _, r := lib.NvmlGetUtilization(); r != lake.Success {
		return r.Err()
	}
	return nil
}

// bootFleet boots an instrumented fleet and drives a deterministic
// multi-tenant LinnOS storm through the client-side router: 2*shards
// tenants, 32 single-request inferences each, issued serially so tenant
// placement — and with it every per-shard virtual-time counter — is
// identical run over run under any routing policy.
func bootFleet(shards int, routerPolicy lake.PoolPolicy) (*lake.Fleet, error) {
	cfg := lake.DefaultConfig()
	cfg.NumShards = shards
	cfg.RouterPolicy = routerPolicy
	bcfg := lake.DefaultBatcherConfig()
	bcfg.Linger = 0
	f, err := lake.NewFleet(lake.FleetConfig{Runtime: cfg, Batcher: bcfg})
	if err != nil {
		return nil, err
	}
	mc := linnos.Model(linnos.Base, nn.New(3, linnos.Base.Sizes()...))
	mc.Name = "linnos"
	if err := f.RegisterModel(mc); err != nil {
		f.Close()
		return nil, err
	}
	tenants := 2 * shards
	for r := 0; r < 32; r++ {
		for t := 0; t < tenants; t++ {
			x := linnos.FeatureVector((t*31+r*7)%97, []time.Duration{
				time.Duration((t+r)%11) * 200 * time.Microsecond,
			})
			if _, err := f.Client(fmt.Sprintf("tenant-%d", t)).Infer("linnos", [][]float32{x}); err != nil {
				f.Close()
				return nil, fmt.Errorf("tenant %d round %d: %w", t, r, err)
			}
		}
	}
	return f, nil
}

// runMetricsDemo prints the instrumented workload's Prometheus exposition
// followed by the flight recorder's Fig 5/6 stage breakdown — the CLI face
// of the observability plane. With devices > 1 the runtime boots a multi-GPU pool and the
// exposition carries per-device labeled series.
func runMetricsDemo(devices int, poolPolicy lake.PoolPolicy, shards int, routerPolicy lake.PoolPolicy) error {
	if shards > 1 {
		f, err := bootFleet(shards, routerPolicy)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Print(f.PrometheusText())
		return nil
	}
	rt, err := bootInstrumented(devices, poolPolicy)
	if err != nil {
		return err
	}
	defer rt.Close()
	fmt.Print(rt.Telemetry().PrometheusText())
	fmt.Println("--- per-API stage breakdown (flight recorder) ---")
	stitch := lake.StitchFlightDump(rt.FlightRecorder().Snapshot("lakebench-metrics"))
	fmt.Print(flightrec.BreakdownTable(stitch.Timelines,
		func(id uint64) string { return remoting.APIID(id).String() }))
	return nil
}

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	exp := flag.String("exp", "", "experiment id to run, or 'all'")
	out := flag.String("out", "", "also write the output to this file")
	metrics := flag.Bool("metrics", false, "run an instrumented demo workload and dump telemetry")
	devices := flag.Int("devices", 1, "number of modeled GPUs in the device pool (for -metrics)")
	poolPolicy := flag.String("pool-policy", "contention-aware", "context placement policy: round-robin, least-outstanding, contention-aware")
	shards := flag.Int("shards", 1, "number of lakeD shards; >1 runs the -metrics workload through a fleet")
	routerPolicy := flag.String("router-policy", "consistent-hash", "fleet shard placement policy: round-robin, least-outstanding, contention-aware, consistent-hash")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			e, _ := experiments.Lookup(id)
			fmt.Printf("%-8s %s\n", id, e.Title)
		}
		return
	}
	if *metrics {
		policy, err := lake.ParsePoolPolicy(*poolPolicy)
		if err != nil {
			log.Fatal(err)
		}
		rp, err := lake.ParsePoolPolicy(*routerPolicy)
		if err != nil {
			log.Fatal(err)
		}
		if err := runMetricsDemo(*devices, policy, *shards, rp); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: lakebench -exp <id>|all  (or -list, -metrics)")
		os.Exit(2)
	}
	var output string
	var err error
	if *exp == "all" {
		output, err = experiments.RunAll()
	} else {
		output, err = experiments.Run(*exp)
	}
	fmt.Print(output)
	if *out != "" {
		if werr := os.WriteFile(*out, []byte(output), 0o644); werr != nil {
			fmt.Fprintln(os.Stderr, "lakebench: write:", werr)
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lakebench:", err)
		os.Exit(1)
	}
}
