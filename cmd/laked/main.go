// Command laked demonstrates the lakeD daemon lifecycle: it boots a LAKE
// runtime, registers the built-in device kernels and a high-level API,
// serves a burst of remoted commands issued by a simulated kernel-space
// client, and prints the daemon-side statistics — the single-machine
// analogue of running the artifact's user-space daemon next to the kernel
// module.
//
// With -telemetry-addr the daemon also serves its observability plane over
// HTTP: /metrics (Prometheus text), /metrics.json (structured snapshot),
// /debug/pprof, and the live health plane — /healthz, /readyz, /statusz,
// /slo.json (rolling burn-rate/percentile state), /incidents.json
// (anomaly-triggered black-box bundles), /flightrec.tail?cursor= (live
// non-destructive event tailing), /flightrec.json (on-demand
// flight-recorder snapshot — feed it to cmd/laketrace; ?last=1 returns the
// retained automatic dump), /spans.json
// (per-call stage timelines stitched from the same recorder, always on)
// and /models.json. With -serve it stays up after the demo burst so the
// endpoints can be scraped.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"time"

	lake "lakego"
	"lakego/internal/boundary"
	"lakego/internal/cuda"
	"lakego/internal/linnos"
	"lakego/internal/nn"
	"lakego/internal/shm"
	"lakego/internal/storage"
	"lakego/internal/trace"
)

// metricsSource is what /metrics and /metrics.json render: a runtime's
// registry, or a fleet's merged shard-labeled view.
type metricsSource interface {
	PrometheusText() string
	Snapshot() lake.TelemetrySnapshot
}

// telemetryHandler builds the observability mux: /metrics, /metrics.json,
// the health plane's routes (lake.HealthPlanePaths, /spans.json among them)
// and /debug/pprof, which the blank import registered on the default mux.
func telemetryHandler(src metricsSource, plane *lake.HealthPlane) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_, _ = io.WriteString(w, src.PrometheusText())
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		b, err := json.MarshalIndent(src.Snapshot(), "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(b)
	})
	planeHandler := plane.Handler()
	for _, p := range lake.HealthPlanePaths {
		mux.Handle(p, planeHandler)
	}
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	return mux
}

// serveTelemetry serves h on addr in the background.
func serveTelemetry(addr string, h http.Handler) {
	go func() {
		if err := http.ListenAndServe(addr, h); err != nil {
			log.Fatalf("telemetry endpoint: %v", err)
		}
	}()
	log.Printf("telemetry on http://%s/metrics (.json, /debug/pprof) + health plane (%s)",
		addr, strings.Join(lake.HealthPlanePaths, " "))
}

// runLifecycleDemo is the -online-train path: boot the LinnOS latency
// classifier on an untrained base model, stream labeled I/O outcomes from
// a profiled trace through the lifecycle feedback channel, and let the
// in-daemon trainer retrain, shadow-score and hot-swap versions while the
// predictor keeps serving. Prints the registry at the end; with
// -telemetry-addr the registry is also live on /models.json.
func runLifecycleDemo(rt *lake.Runtime, cfg lake.ModelLifecycleConfig, samples int) {
	base := nn.New(3, linnos.Base.Sizes()...)
	pred, err := linnos.NewPredictor(rt, linnos.Base, base)
	if err != nil {
		log.Fatal(err)
	}
	mgr, err := rt.NewLifecycle(cfg, base)
	if err != nil {
		log.Fatal(err)
	}
	if err := mgr.Attach(pred.SwapNet); err != nil {
		log.Fatal(err)
	}

	reqs := trace.Profiles()[0].Rerate(3).Generate(42, samples)
	labeled, threshold := linnos.CollectSamples(storage.DefaultConfig("demo", 1), reqs)
	for _, s := range labeled {
		slow, _ := pred.InferCPU([][]float32{s.X})
		o := lake.ModelOutcome{X: s.X, Predicted: b2i(slow[0]), Label: b2i(s.Slow)}
		mgr.Observe(o)
		mgr.Pump() // in-process demo: service the trainer inline
	}

	st := mgr.Stats()
	fmt.Println("online model lifecycle (linnos, trace-fed):")
	fmt.Printf("  slow threshold       %v\n", threshold)
	fmt.Printf("  feedback samples     %d (dropped %d)\n", st.SamplesSeen, st.Dropped)
	fmt.Printf("  retrain steps        %d\n", st.RetrainSteps)
	fmt.Printf("  versions registered  %d, serving seq %d (hash %016x)\n", st.Versions, st.ServingSeq, st.ServingHash)
	fmt.Printf("  swaps %d, demotions %d, drift alarms %d, fallback %v\n", st.Swaps, st.Demotions, st.DriftAlarms, st.Fallback)
	fmt.Printf("  drift baseline %.3f (current partial window %.3f)\n", st.Baseline, st.LiveAccuracy)
	for _, v := range mgr.Registry().Versions() {
		mark := " "
		if v == mgr.Serving() {
			mark = "*"
		}
		fmt.Printf("  %s v%d %016x %-15s samples=%d parent=%d\n",
			mark, v.Seq, v.Hash, v.Meta.Note, v.Meta.Samples, v.Meta.ParentSeq)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runFleetDemo is the -shards > 1 path: boot a fleet of independent lakeD
// shards behind the client-side router, drive a multi-tenant LinnOS
// inference storm through it, print the per-shard and router statistics,
// and finish with a live drain so the journal-handoff migration shows up
// in the demo output.
func runFleetDemo(cfg lake.Config, shards int, policy lake.PoolPolicy, calls int, telemetryAddr string, stay bool) {
	cfg.NumShards = shards
	cfg.RouterPolicy = policy
	f, err := lake.NewFleet(lake.FleetConfig{Runtime: cfg, Batcher: lake.DefaultBatcherConfig()})
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if telemetryAddr != "" {
		if f.Telemetry() == nil {
			log.Fatal("-telemetry-addr requires telemetry (do not set -no-telemetry)")
		}
		// Fleet health plane: per-shard /readyz, merged /slo.json, tailing of
		// the shared shard-stamped recorder, and incident capture with the
		// stall watchdog live (the fleet tracks per-shard outstanding work).
		serveTelemetry(telemetryAddr, telemetryHandler(f, f.NewHealthPlane(lake.HealthPlaneConfig{})))
	}
	mc := linnos.Model(linnos.Base, nn.New(3, linnos.Base.Sizes()...))
	mc.Name = "linnos"
	if err := f.RegisterModel(mc); err != nil {
		log.Fatal(err)
	}

	const tenants = 8
	per := calls / tenants
	var wg sync.WaitGroup
	for t := 0; t < tenants; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			c := f.Client(fmt.Sprintf("tenant-%d", t))
			for r := 0; r < per; r++ {
				x := linnos.FeatureVector((t*31+r*7)%97, []time.Duration{
					time.Duration((t+r)%11) * 200 * time.Microsecond,
				})
				if _, err := c.Infer("linnos", [][]float32{x}); err != nil {
					log.Fatalf("tenant %d: %v", t, err)
				}
			}
		}(t)
	}
	wg.Wait()

	st := f.Stats()
	fmt.Printf("lakeD fleet served %d tenants across %d shards (%s routing):\n",
		tenants, shards, f.Policy())
	fmt.Printf("  placements %d  reroutes %d  admission rejects %d\n",
		st.Placements, st.Reroutes, st.Rejects)
	for _, sh := range f.Shards() {
		bs := sh.Batcher().Stats()
		rst := sh.Runtime().Stats()
		fmt.Printf("  shard %d [%s]: %d requests, %d daemon handled, %d launches, %d flushes (avg batch %.1f), v=%v\n",
			sh.Ordinal(), sh.State(), bs.Requests, rst.DaemonHandled,
			rst.KernelLaunches, bs.Flushes, bs.AvgBatch(), sh.Clock().Now())
	}
	fmt.Printf("  fleet virtual elapsed (critical path) %v\n", f.VirtualElapsed())

	m, err := f.Drain(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  drained shard %d -> %d: %d journal entries crossed in a %dB sealed frame, %d tenants re-homed\n",
		m.Src, m.Dst, m.JournalEntries, m.HandoffBytes, m.Tenants)

	if stay && telemetryAddr != "" {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		fmt.Println("serving fleet telemetry; ctrl-c to exit")
		<-sig
	}
}

func main() {
	calls := flag.Int("calls", 1000, "number of remoted vector-add rounds to serve")
	n := flag.Int("n", 256, "vector length per round")
	channel := flag.String("channel", "netlink", "command channel cost model: netlink, signal, devrw, mmap, ring")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /metrics, /metrics.json, /debug/pprof and the health plane (/spans.json, /healthz, ...) on this address (e.g. :9090)")
	noTelemetry := flag.Bool("no-telemetry", false, "boot the runtime without the observability plane")
	serve := flag.Bool("serve", false, "after the demo burst, keep serving the telemetry endpoints until interrupted")
	devices := flag.Int("devices", 1, "number of modeled GPUs in the device pool")
	poolPolicy := flag.String("pool-policy", "contention-aware", "context placement policy: round-robin, least-outstanding, contention-aware")
	shards := flag.Int("shards", 1, "number of lakeD shards; >1 boots a fleet behind the client-side router")
	routerPolicy := flag.String("router-policy", "consistent-hash", "fleet shard placement policy: round-robin, least-outstanding, contention-aware, consistent-hash")
	onlineTrain := flag.Bool("online-train", false, "run the online model-lifecycle demo: in-daemon LinnOS retraining with shadow-scored hot-swaps (see /models.json)")
	trainSamples := flag.Int("train-samples", 4000, "trace I/Os to stream through the lifecycle feedback channel (with -online-train)")
	retrainMinibatch := flag.Int("retrain-minibatch", 64, "online SGD minibatch size (with -online-train)")
	retrainRound := flag.Int("retrain-round", 256, "feedback samples per retrain round before shadow scoring (with -online-train)")
	driftWindow := flag.Int("drift-window", 256, "outcomes per drift evaluation window (with -online-train)")
	driftTolerance := flag.Float64("drift-tolerance", 0.10, "live-accuracy drop below baseline marking a window bad (with -online-train)")
	flag.Parse()

	cfg := lake.DefaultConfig()
	cfg.NumDevices = *devices
	policy, err := lake.ParsePoolPolicy(*poolPolicy)
	if err != nil {
		log.Fatal(err)
	}
	cfg.PoolPolicy = policy
	switch *channel {
	case "netlink":
		cfg.Channel = boundary.Netlink
	case "signal":
		cfg.Channel = boundary.Signal
	case "devrw":
		cfg.Channel = boundary.DeviceRW
	case "mmap":
		cfg.Channel = boundary.Mmap
	case "ring":
		cfg.Channel = boundary.Ring
	default:
		log.Fatalf("unknown channel %q", *channel)
	}
	cfg.DisableTelemetry = *noTelemetry
	if *shards > 1 {
		rp, err := lake.ParsePoolPolicy(*routerPolicy)
		if err != nil {
			log.Fatal(err)
		}
		runFleetDemo(cfg, *shards, rp, *calls, *telemetryAddr, *serve)
		return
	}
	rt, err := lake.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()
	if *telemetryAddr != "" {
		tel := rt.Telemetry()
		if tel == nil {
			log.Fatal("-telemetry-addr requires telemetry (do not set -no-telemetry)")
		}
		serveTelemetry(*telemetryAddr, telemetryHandler(tel, rt.NewHealthPlane(lake.HealthPlaneConfig{})))
	}
	if *onlineTrain {
		lcfg := lake.DefaultLifecycleConfig("linnos-NN")
		lcfg.Minibatch = *retrainMinibatch
		lcfg.RoundSamples = *retrainRound
		lcfg.DriftWindow = *driftWindow
		lcfg.DriftTolerance = *driftTolerance
		runLifecycleDemo(rt, lcfg, *trainSamples)
		if *serve && *telemetryAddr != "" {
			sig := make(chan os.Signal, 1)
			signal.Notify(sig, os.Interrupt)
			fmt.Println("serving telemetry; ctrl-c to exit")
			<-sig
		}
		return
	}
	rt.RegisterKernel(lake.VecAddKernel())

	// A custom high-level API, the §4.4 extension point.
	rt.Daemon().RegisterHighLevel("sum", func(api *cuda.API, region *shm.Region, args []uint64, blob []byte) ([]uint64, []byte, cuda.Result) {
		var sum uint64
		for _, a := range args {
			sum += a
		}
		return []uint64{sum}, nil, cuda.Success
	})

	lib := rt.Lib()
	ctx, r := lib.CuCtxCreate("laked-demo")
	if r != lake.Success {
		log.Fatalf("cuCtxCreate: %s", r)
	}
	mod, _ := lib.CuModuleLoad("kernels.cubin")
	fn, r := lib.CuModuleGetFunction(mod, "vecadd")
	if r != lake.Success {
		log.Fatalf("cuModuleGetFunction: %s", r)
	}

	size := int64(4 * *n)
	a, err := rt.Region().Alloc(size)
	if err != nil {
		log.Fatal(err)
	}
	c, err := rt.Region().Alloc(size)
	if err != nil {
		log.Fatal(err)
	}
	vals := make([]float32, *n)
	for i := range vals {
		vals[i] = float32(i)
	}
	if err := cuda.PutFloat32s(a.Bytes(), vals); err != nil {
		log.Fatal(err)
	}
	da, _ := lib.CuMemAlloc(size)
	dc, _ := lib.CuMemAlloc(size)

	for i := 0; i < *calls; i++ {
		if r := lib.CuMemcpyHtoDShm(da, a, size); r != lake.Success {
			log.Fatalf("HtoD: %s", r)
		}
		if r := lib.CuLaunchKernel(ctx, fn, []uint64{uint64(da), uint64(da), uint64(dc), uint64(*n)}); r != lake.Success {
			log.Fatalf("launch: %s", r)
		}
		if r := lib.CuMemcpyDtoHShm(c, dc, size); r != lake.Success {
			log.Fatalf("DtoH: %s", r)
		}
	}
	if vals2, _ := cuda.Float32s(c.Bytes(), *n); (*n) > 1 && vals2[1] != 2 {
		log.Fatalf("vecadd produced %v, want 2", vals2[1])
	}
	if sum, _, r := lib.CallHighLevel("sum", []uint64{40, 2}, nil); r != lake.Success || sum[0] != 42 {
		log.Fatalf("high-level sum = %v (%s)", sum, r)
	}

	st := rt.Stats()
	fmt.Println("lakeD served the kernel-space client:")
	fmt.Printf("  remoted calls        %d\n", st.RemotedCalls)
	fmt.Printf("  daemon handled       %d\n", st.DaemonHandled)
	fmt.Printf("  kernel launches      %d\n", st.KernelLaunches)
	fmt.Printf("  shm in use           %d bytes\n", st.ShmUsed)
	fmt.Printf("  modeled channel time %v\n", st.ChannelTime)
	fmt.Printf("  virtual time elapsed %v\n", st.VirtualTime)
	if *devices > 1 {
		fmt.Printf("  device pool (%s placement):\n", rt.Pool().Policy())
		for _, acc := range rt.Pool().Accounting() {
			fmt.Printf("    gpu%d: %d launches, %d copies, %d bytes copied\n",
				acc.Ordinal, acc.Launches, acc.Copies, acc.CopyBytes)
		}
	}

	if *serve && *telemetryAddr != "" {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		fmt.Println("serving telemetry; ctrl-c to exit")
		<-sig
	}
}
