// Command laked demonstrates the lakeD daemon lifecycle: it boots a LAKE
// runtime, registers the built-in device kernels and a high-level API,
// serves a burst of remoted commands issued by a simulated kernel-space
// client, and prints the daemon-side statistics — the single-machine
// analogue of running the artifact's user-space daemon next to the kernel
// module. -channel picks the command channel's cost row (netlink, signal,
// devrw, mmap or ring); the burst runs on the virtual clock, so the printed
// statistics repeat byte for byte.
//
// With -telemetry-addr the daemon also serves its observability plane over
// HTTP and stays up after the burst until interrupted: /metrics (Prometheus
// text), /metrics.json (structured snapshot), /debug/pprof, and the live
// health plane — /healthz, /readyz, /statusz, /slo.json (rolling
// burn-rate/percentile state), /incidents.json (anomaly-triggered black-box
// bundles), /flightrec.tail?cursor= (live non-destructive event tailing),
// /flightrec.json (on-demand flight-recorder snapshot — feed it to
// cmd/laketrace; ?last=true returns the retained automatic dump) and
// /spans.json (per-call stage timelines stitched from the same recorder,
// always on).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"

	lake "lakego"
	"lakego/internal/boundary"
	"lakego/internal/cuda"
	"lakego/internal/shm"
)

// The burst: calls vector-add rounds of n float32s each.
const (
	calls = 1000
	n     = 256
)

// telemetryHandler builds rt's observability mux: /metrics, /metrics.json,
// the routes of a health plane attached to rt (lake.HealthPlanePaths,
// /spans.json among them) and /debug/pprof, which the blank import
// registered on the default mux.
func telemetryHandler(rt *lake.Runtime) http.Handler {
	reg := rt.Telemetry()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_, _ = io.WriteString(w, reg.PrometheusText())
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		b, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(b)
	})
	planeHandler := lake.NewHealthPlane(rt).Handler()
	for _, p := range lake.HealthPlanePaths {
		mux.Handle(p, planeHandler)
	}
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	return mux
}

// parseChannel maps a -channel value to its cost row.
func parseChannel(s string) (lake.ChannelKind, error) {
	switch s {
	case "netlink":
		return boundary.Netlink, nil
	case "signal":
		return boundary.Signal, nil
	case "devrw":
		return boundary.DeviceRW, nil
	case "mmap":
		return boundary.Mmap, nil
	case "ring":
		return boundary.Ring, nil
	}
	return 0, fmt.Errorf("unknown channel %q", s)
}

// run is main minus the exit: it serves the burst over channel and prints
// lakeD's statistics to out. With telemetryAddr set it serves the
// observability plane there, before the burst, until ctx is done.
func run(ctx context.Context, channel, telemetryAddr string, out io.Writer) error {
	cfg := lake.DefaultConfig()
	var err error
	if cfg.Channel, err = parseChannel(channel); err != nil {
		return err
	}
	rt, err := lake.New(cfg)
	if err != nil {
		return err
	}
	defer rt.Close()
	var srv *http.Server
	served := make(chan error, 1)
	if telemetryAddr != "" {
		lis, err := net.Listen("tcp", telemetryAddr)
		if err != nil {
			return fmt.Errorf("telemetry endpoint: %w", err)
		}
		srv = &http.Server{Handler: telemetryHandler(rt)}
		go func() { served <- srv.Serve(lis) }()
		defer srv.Close()
		fmt.Fprintf(out, "telemetry on http://%s/metrics (.json, /debug/pprof) + health plane (%s)\n",
			lis.Addr(), strings.Join(lake.HealthPlanePaths, " "))
	}
	if err := burst(rt); err != nil {
		return err
	}

	st := rt.Stats()
	fmt.Fprintln(out, "lakeD served the kernel-space client:")
	fmt.Fprintf(out, "  remoted calls        %d\n", st.RemotedCalls)
	fmt.Fprintf(out, "  daemon handled       %d\n", st.DaemonHandled)
	fmt.Fprintf(out, "  kernel launches      %d\n", st.KernelLaunches)
	fmt.Fprintf(out, "  shm in use           %d bytes\n", st.ShmUsed)
	fmt.Fprintf(out, "  modeled channel time %v\n", st.ChannelTime)
	fmt.Fprintf(out, "  virtual time elapsed %v\n", st.VirtualTime)
	if srv == nil {
		return nil
	}
	fmt.Fprintln(out, "serving telemetry; ctrl-c to exit")
	select {
	case <-ctx.Done():
		return nil
	case err := <-served:
		return fmt.Errorf("telemetry endpoint: %w", err)
	}
}

// burst issues the kernel-space client's commands: calls vector-add rounds
// through lakeShm, each checked element by element, then one call of a
// custom high-level API, the §4.4 extension point.
func burst(rt *lake.Runtime) error {
	rt.RegisterKernel(lake.VecAddKernel())
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
		return fmt.Errorf("cuCtxCreate: %s", r)
	}
	mod, r := lib.CuModuleLoad("kernels.cubin")
	if r != lake.Success {
		return fmt.Errorf("cuModuleLoad: %s", r)
	}
	fn, r := lib.CuModuleGetFunction(mod, "vecadd")
	if r != lake.Success {
		return fmt.Errorf("cuModuleGetFunction: %s", r)
	}

	const size = 4 * n
	a, err := rt.Region().Alloc(size)
	if err != nil {
		return err
	}
	c, err := rt.Region().Alloc(size)
	if err != nil {
		return err
	}
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i)
	}
	if err := cuda.PutFloat32s(a.Bytes(), vals); err != nil {
		return err
	}
	da, r := lib.CuMemAlloc(size)
	if r != lake.Success {
		return fmt.Errorf("cuMemAlloc: %s", r)
	}
	dc, r := lib.CuMemAlloc(size)
	if r != lake.Success {
		return fmt.Errorf("cuMemAlloc: %s", r)
	}

	for i := 0; i < calls; i++ {
		if r := lib.CuMemcpyHtoDShm(da, a, size); r != lake.Success {
			return fmt.Errorf("HtoD: %s", r)
		}
		if r := lib.CuLaunchKernel(ctx, fn, []uint64{uint64(da), uint64(da), uint64(dc), n}); r != lake.Success {
			return fmt.Errorf("launch: %s", r)
		}
		if r := lib.CuMemcpyDtoHShm(c, dc, size); r != lake.Success {
			return fmt.Errorf("DtoH: %s", r)
		}
	}
	sums, err := cuda.Float32s(c.Bytes(), n)
	if err != nil {
		return err
	}
	for i, v := range sums {
		if v != 2*vals[i] {
			return fmt.Errorf("vecadd[%d] = %v, want %v", i, v, 2*vals[i])
		}
	}
	if sum, _, r := lib.CallHighLevel("sum", []uint64{40, 2}, nil); r != lake.Success || sum[0] != 42 {
		return fmt.Errorf("high-level sum = %v (%s)", sum, r)
	}
	return nil
}

func main() {
	channel := flag.String("channel", "netlink", "command channel cost model: netlink, signal, devrw, mmap, ring")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /metrics, /metrics.json, /debug/pprof and the health plane (/spans.json, /healthz, ...) on this address (e.g. :9090) until interrupted")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, *channel, *telemetryAddr, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
