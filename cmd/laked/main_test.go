package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	lake "lakego"
)

func parseJSON(b []byte) error {
	if !json.Valid(b) {
		return errors.New("not valid JSON")
	}
	return nil
}

// TestTelemetryHandlerRoutes boots a default runtime — no flag or option
// set — issues one launch, and checks every route laked serves for status,
// content type and a body its consumer can parse.
func TestTelemetryHandlerRoutes(t *testing.T) {
	rt, err := lake.New(lake.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
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
	srv := httptest.NewServer(telemetryHandler(rt.Telemetry(), rt.NewHealthPlane(lake.HealthPlaneConfig{})))
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
		"/healthz":        {"application/json", parseJSON},
		"/readyz":         {"application/json", parseJSON},
		"/slo.json":       {"application/json", parseJSON},
		"/incidents.json": {"application/json", parseJSON},
		"/flightrec.tail": {"application/json", parseJSON},
		"/flightrec.json": {"application/json", func(b []byte) error {
			_, err := lake.ReadFlightDump(b)
			return err
		}},
		"/models.json": {"application/json", parseJSON},
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
}
