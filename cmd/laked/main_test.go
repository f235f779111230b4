package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	lake "lakego"
	"lakego/internal/linnos"
	"lakego/internal/nn"
)

func parseJSON(b []byte) error {
	if !json.Valid(b) {
		return errors.New("not valid JSON")
	}
	return nil
}

// launchVecAdd issues one remoted vector-add launch on rt.
func launchVecAdd(t *testing.T, rt *lake.Runtime) {
	t.Helper()
	rt.RegisterKernel(lake.VecAddKernel())
	lib := rt.Lib()
	ctx, _ := lib.CuCtxCreate("laked-test")
	mod, _ := lib.CuModuleLoad("kernels.cubin")
	fn, _ := lib.CuModuleGetFunction(mod, "vecadd")
	const n = 16
	da, _ := lib.CuMemAlloc(4 * n)
	dc, _ := lib.CuMemAlloc(4 * n)
	if r := lib.CuLaunchKernel(ctx, fn, []uint64{uint64(da), uint64(da), uint64(dc), n}); r != lake.Success {
		t.Fatalf("launch: %s", r)
	}
}

// readyzBody is the exact /readyz body for ready, idle shards in ordinal
// order, each in state and with its daemon's handled count.
func readyzBody(state string, handled ...int64) string {
	shards := make([]string, len(handled))
	for i, h := range handled {
		shards[i] = fmt.Sprintf("    {\n      \"ordinal\": %d,\n      \"state\": %q,\n      \"ready\": true,\n      \"outstanding\": 0,\n      \"handled\": %d\n    }", i, state, h)
	}
	return "{\n  \"ready\": true,\n  \"shards\": [\n" + strings.Join(shards, ",\n") + "\n  ]\n}\n"
}

// TestTelemetryHandlerRoutes checks every route laked serves, for status,
// content type and a body its consumer can parse, on both sources
// telemetryHandler renders: a default runtime's (what `laked
// -telemetry-addr` serves) and a 2-shard fleet's merged view. Each source has
// issued one launch. /readyz must match byte for byte, and the fleet plane,
// watching a lifecycle manager on shard 1, must list both shards and the
// model.
func TestTelemetryHandlerRoutes(t *testing.T) {
	rt, err := lake.New(lake.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	launchVecAdd(t, rt)

	fcfg := lake.DefaultConfig()
	fcfg.NumShards = 2
	fcfg.ShmBytes = 16 << 20
	f, err := lake.NewFleet(lake.FleetConfig{Runtime: fcfg, Batcher: lake.DefaultBatcherConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	launchVecAdd(t, f.Shard(0).Runtime())
	mgr, err := lake.NewLifecycle(f.Shard(1).Runtime(), lake.DefaultLifecycleConfig("linnos"), nn.New(3, linnos.Base.Sizes()...))
	if err != nil {
		t.Fatal(err)
	}
	fleetPlane := lake.NewFleetHealthPlane(f, lake.HealthPlaneConfig{})
	fleetPlane.Watch(mgr)

	for _, src := range []struct {
		name    string
		handler http.Handler
		calls   string // lakeLib's call counter, as the source names it
		readyz  string
		model   string // a model /models.json must list, if any
	}{
		{"runtime", telemetryHandler(rt.Telemetry(), lake.NewHealthPlane(rt, lake.HealthPlaneConfig{})),
			"lake_lib_calls_total", readyzBody("Healthy", rt.Daemon().Handled()), ""},
		{"fleet", telemetryHandler(f, fleetPlane),
			`lake_lib_calls_total{shard="0"}`,
			readyzBody("Active", f.Shard(0).Runtime().Daemon().Handled(), f.Shard(1).Runtime().Daemon().Handled()), "linnos"},
	} {
		t.Run(src.name, func(t *testing.T) {
			srv := httptest.NewServer(src.handler)
			defer srv.Close()
			routes := map[string]struct {
				contentType string
				parse       func([]byte) error
			}{
				"/metrics": {"text/plain", func(b []byte) error {
					if !strings.Contains(string(b), "# TYPE lake_lib_calls_total counter") {
						return errors.New("no lake_lib_calls_total family")
					}
					return nil
				}},
				"/metrics.json": {"application/json", func(b []byte) error {
					var snap lake.TelemetrySnapshot
					if err := json.Unmarshal(b, &snap); err != nil {
						return err
					}
					if snap.Counters[src.calls] == 0 {
						return fmt.Errorf("%s did not move", src.calls)
					}
					return nil
				}},
				"/spans.json": {"application/json", func(b []byte) error {
					var spans []lake.Span
					if err := json.Unmarshal(b, &spans); err != nil {
						return err
					}
					for _, sp := range spans {
						if sp.Name == "cuLaunchKernel" && len(sp.Stages) > 0 {
							return nil
						}
					}
					return errors.New("no cuLaunchKernel span")
				}},
				"/statusz": {"text/plain", func(b []byte) error {
					if !strings.Contains(string(b), "objectives") {
						return errors.New("no objectives section")
					}
					return nil
				}},
				"/healthz": {"application/json", parseJSON},
				"/readyz": {"application/json", func(b []byte) error {
					if string(b) != src.readyz {
						return fmt.Errorf("body differs, want\n%s", src.readyz)
					}
					return nil
				}},
				"/slo.json":       {"application/json", parseJSON},
				"/incidents.json": {"application/json", parseJSON},
				"/flightrec.tail": {"application/json", parseJSON},
				"/flightrec.json": {"application/json", func(b []byte) error {
					_, err := lake.ReadFlightDump(b)
					return err
				}},
				"/models.json": {"application/json", func(b []byte) error {
					var models map[string]json.RawMessage
					if err := json.Unmarshal(b, &models); err != nil {
						return err
					}
					if _, ok := models[src.model]; src.model != "" && !ok {
						return fmt.Errorf("model %q not listed", src.model)
					}
					return nil
				}},
			}
			for _, p := range lake.HealthPlanePaths {
				if _, ok := routes[p]; !ok {
					t.Errorf("health-plane route %s has no expectation in this table", p)
				}
			}
			for path, want := range routes {
				resp, err := srv.Client().Get(srv.URL + path)
				if err != nil {
					t.Fatalf("GET %s: %v", path, err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatalf("GET %s: read body: %v", path, err)
				}
				if resp.StatusCode != 200 {
					t.Errorf("GET %s = %d: %s", path, resp.StatusCode, body)
					continue
				}
				if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, want.contentType) {
					t.Errorf("GET %s Content-Type = %q, want %s", path, ct, want.contentType)
				}
				if err := want.parse(body); err != nil {
					t.Errorf("GET %s body: %v\n%.300s", path, err, body)
				}
			}
		})
	}
}

// burstStats is laked's stdout for the burst on one channel: the counts
// repeat on every row, and the modeled channel time and the virtual time
// elapsed are the row's virtual-clock figures.
func burstStats(channelTime, elapsed string) string {
	return "lakeD served the kernel-space client:\n" +
		"  remoted calls        3007\n" +
		"  daemon handled       3007\n" +
		"  kernel launches      1000\n" +
		"  shm in use           2099200 bytes\n" +
		"  modeled channel time " + channelTime + "\n" +
		"  virtual time elapsed " + elapsed + "\n"
}

// TestRunChannels pins laked's stdout for each -channel value: the burst
// runs on the virtual clock, so each cost row prints its own channel time
// byte for byte. An unknown channel is an error before anything boots.
func TestRunChannels(t *testing.T) {
	for _, c := range []struct{ channel, channelTime, elapsed string }{
		{"netlink", "87.203ms", "106.373ms"},
		{"signal", "345.805ms", "364.975ms"},
		{"devrw", "192.448ms", "211.618ms"},
		{"mmap", "39.091ms", "58.261ms"},
		{"ring", "12.028ms", "31.198ms"},
	} {
		t.Run(c.channel, func(t *testing.T) {
			var out strings.Builder
			if err := run(context.Background(), c.channel, "", &out); err != nil {
				t.Fatal(err)
			}
			if want := burstStats(c.channelTime, c.elapsed); out.String() != want {
				t.Fatalf("stdout differs:\n--- got ---\n%s--- want ---\n%s", out.String(), want)
			}
		})
	}
	var out strings.Builder
	if err := run(context.Background(), "pipe", "", &out); err == nil || out.Len() != 0 {
		t.Fatalf("unknown channel: err %v, printed %q", err, out.String())
	}
}

// TestRunServesTelemetry runs laked with -telemetry-addr on a loopback
// address: /healthz answers while run serves, and run returns once its
// context is done, having printed the burst's statistics.
func TestRunServesTelemetry(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	var out strings.Builder
	done := make(chan error, 1)
	go func() { done <- run(ctx, "ring", addr, &out) }()

	var body []byte
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case err := <-done:
			t.Fatalf("run returned before serving: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET /healthz: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := parseJSON(body); err != nil {
		t.Fatalf("/healthz: %v\n%s", err, body)
	}
	stop()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), burstStats("12.028ms", "31.198ms")) {
		t.Fatalf("stdout lacks the ring burst's statistics:\n%s", out.String())
	}
}
