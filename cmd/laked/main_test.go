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
)

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

// readyzBody is the exact /readyz body of a ready runtime whose daemon has
// handled the given count.
func readyzBody(handled int64) string {
	return fmt.Sprintf("{\n  \"ready\": true,\n  \"shards\": [\n    {\n      \"state\": \"Healthy\",\n      \"ready\": true,\n      \"handled\": %d\n    }\n  ]\n}\n", handled)
}

// isArray reports whether raw is a JSON array (null is not one).
func isArray(raw []byte) bool {
	var v []json.RawMessage
	return json.Unmarshal(raw, &v) == nil && v != nil
}

// route is what a consumer of one laked route relies on: its content type
// and a check of its body.
type route struct {
	contentType string
	check       func([]byte) error
}

// routes is every route laked serves, for a runtime whose daemon has handled
// handled commands and whose lakeLib counts its calls as
// lake_lib_calls_total.
func routes(handled int64) map[string]route {
	readyz := readyzBody(handled)
	return map[string]route{
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
			if snap.Counters["lake_lib_calls_total"] == 0 {
				return errors.New("lake_lib_calls_total did not move")
			}
			return nil
		}},
		"/spans.json": {"application/json", func(b []byte) error {
			var spans []lake.Span
			if err := json.Unmarshal(b, &spans); err != nil {
				return err
			}
			if len(spans) == 0 || len(spans[0].Stages) < 3 {
				return errors.New("want at least one span, the first with at least 3 stages")
			}
			for _, sp := range spans {
				if sp.Name == "cuLaunchKernel" && len(sp.Stages) >= 3 {
					return nil
				}
			}
			return errors.New("no cuLaunchKernel span with at least 3 stages")
		}},
		"/statusz": {"text/plain", func(b []byte) error {
			if !strings.Contains(string(b), "objectives") {
				return errors.New("no objectives section")
			}
			return nil
		}},
		"/healthz": {"application/json", func(b []byte) error {
			var hz struct{ Status string }
			if err := json.Unmarshal(b, &hz); err != nil {
				return err
			}
			if hz.Status != "ok" {
				return fmt.Errorf("status %q, want ok", hz.Status)
			}
			return nil
		}},
		"/readyz": {"application/json", func(b []byte) error {
			if string(b) != readyz {
				return fmt.Errorf("body differs, want\n%s", readyz)
			}
			return nil
		}},
		"/slo.json": {"application/json", func(b []byte) error {
			var slo struct{ Objectives, Stages json.RawMessage }
			if err := json.Unmarshal(b, &slo); err != nil {
				return err
			}
			var objs []json.RawMessage
			if json.Unmarshal(slo.Objectives, &objs) != nil || len(objs) == 0 {
				return errors.New("no objective")
			}
			if !isArray(slo.Stages) {
				return errors.New("stages is not an array")
			}
			return nil
		}},
		"/incidents.json": {"application/json", func(b []byte) error {
			if !isArray(b) {
				return errors.New("not an array")
			}
			return nil
		}},
		"/flightrec.tail": {"application/json", func(b []byte) error {
			var tail struct {
				Cursor *string
				Events json.RawMessage
			}
			if err := json.Unmarshal(b, &tail); err != nil {
				return err
			}
			if tail.Cursor == nil || !isArray(tail.Events) {
				return errors.New("want a cursor and an events array")
			}
			return nil
		}},
		"/flightrec.json": {"application/json", func(b []byte) error {
			d, err := lake.ReadFlightDump(b)
			if err != nil {
				return err
			}
			if d.Reason != "http" {
				return fmt.Errorf("reason %q, want http", d.Reason)
			}
			return nil
		}},
	}
}

// TestTelemetryHandlerRoutes checks every route laked serves on a default
// runtime that has issued one launch, for status, content type and the body
// its consumer relies on; /readyz must match byte for byte, and the plane
// serves no registry route. planted-bad-body feeds each route's check a body
// it must reject.
func TestTelemetryHandlerRoutes(t *testing.T) {
	rt, err := lake.New(lake.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	launchVecAdd(t, rt)
	table := routes(rt.Daemon().Handled())

	t.Run("runtime", func(t *testing.T) {
		srv := httptest.NewServer(telemetryHandler(rt))
		defer srv.Close()
		for _, p := range lake.HealthPlanePaths {
			if _, ok := table[p]; !ok {
				t.Errorf("health-plane route %s has no expectation in this table", p)
			}
		}
		get := func(path string) (*http.Response, []byte) {
			resp, err := srv.Client().Get(srv.URL + path)
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("GET %s: read body: %v", path, err)
			}
			return resp, body
		}
		for path, want := range table {
			resp, body := get(path)
			if resp.StatusCode != 200 {
				t.Errorf("GET %s = %d: %s", path, resp.StatusCode, body)
				continue
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, want.contentType) {
				t.Errorf("GET %s Content-Type = %q, want %s", path, ct, want.contentType)
			}
			if err := want.check(body); err != nil {
				t.Errorf("GET %s body: %v\n%.300s", path, err, body)
			}
		}
		if resp, _ := get("/models.json"); resp.StatusCode != 404 {
			t.Errorf("GET /models.json = %d, want 404", resp.StatusCode)
		}
	})

	t.Run("planted-bad-body", func(t *testing.T) {
		otherDump, err := rt.FlightRecorder().Snapshot("crash").JSON()
		if err != nil {
			t.Fatal(err)
		}
		planted := map[string][]string{
			"/metrics":        {"# TYPE lake_other_total counter\n"},
			"/metrics.json":   {`{"counters": {}}`, `[`},
			"/spans.json":     {`[]`, `[{"name": "cuLaunchKernel", "stages": [{}, {}]}]`, `{}`},
			"/statusz":        {"lake health plane\n"},
			"/healthz":        {`{"status": "degraded"}`, `{}`},
			"/readyz":         {strings.Replace(readyzBody(rt.Daemon().Handled()), `"ready": true`, `"ready": false`, 1)},
			"/slo.json":       {`{"objectives": [], "stages": []}`, `{"objectives": [{}], "stages": null}`, `{"objectives": [{}]}`},
			"/incidents.json": {`{}`, `null`},
			"/flightrec.tail": {`{"events": []}`, `{"cursor": "v2.0.0.0.0.0.0.0.0", "events": null}`},
			"/flightrec.json": {string(otherDump), `{}`},
		}
		for path, want := range table {
			bodies := planted[path]
			if len(bodies) == 0 {
				t.Errorf("route %s has no planted bad body", path)
			}
			for _, b := range bodies {
				if want.check([]byte(b)) == nil {
					t.Errorf("%s check accepted the planted body %.120q", path, b)
				}
			}
		}
	})
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
	if err := routes(0)["/healthz"].check(body); err != nil {
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
