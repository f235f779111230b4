package healthplane

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lakego/internal/flightrec"
	"lakego/internal/lifecycle"
	"lakego/internal/nn"
	"lakego/internal/telemetry"
	"lakego/internal/vtime"
)

// testPlane wires a plane to a live recorder, registry, model and probe —
// the shape laked serves.
func testPlane(t *testing.T) (*Plane, *flightrec.Recorder, *telemetry.Registry) {
	t.Helper()
	clock := vtime.New()
	rec := flightrec.New(clock, 256)
	rec.SetEnabled(true)
	reg := telemetry.NewRegistry()
	m, err := lifecycle.NewManager(clock, lifecycle.DefaultConfig("pred"), nn.New(1, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	p := New(Config{Tick: time.Millisecond, Version: "test"})
	p.SetClock(clock.Now)
	p.SetRecorder(rec)
	p.SetTelemetrySource(reg.Snapshot)
	p.SetModelSource(func() []*lifecycle.Manager { return []*lifecycle.Manager{m} })
	p.SetShardProbe(func() []ShardHealth {
		return []ShardHealth{{Ordinal: 0, State: "Active", Ready: true, Handled: 1}}
	})
	return p, rec, reg
}

func get(t *testing.T, srv *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		body.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, []byte(body.String())
}

func TestHTTPEndpoints(t *testing.T) {
	p, rec, _ := testPlane(t)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	// /healthz is pure liveness.
	code, body := get(t, srv, "/healthz")
	if code != 200 {
		t.Fatalf("/healthz = %d", code)
	}
	var hz map[string]interface{}
	if err := json.Unmarshal(body, &hz); err != nil || hz["status"] != "ok" || hz["version"] != "test" {
		t.Fatalf("/healthz body = %s (%v)", body, err)
	}

	// /readyz reflects the probe.
	code, body = get(t, srv, "/readyz")
	if code != 200 || !strings.Contains(string(body), `"ready": true`) {
		t.Fatalf("/readyz = %d %s", code, body)
	}

	// /statusz is the text one-pager.
	code, body = get(t, srv, "/statusz")
	if code != 200 || !strings.Contains(string(body), "objectives") || !strings.Contains(string(body), "model pred") {
		t.Fatalf("/statusz = %d %s", code, body)
	}

	// /slo.json decodes into the snapshot shape with the default objectives.
	code, body = get(t, srv, "/slo.json")
	if code != 200 {
		t.Fatalf("/slo.json = %d", code)
	}
	var slo SLOSnapshot
	if err := json.Unmarshal(body, &slo); err != nil {
		t.Fatalf("/slo.json decode: %v", err)
	}
	if len(slo.Objectives) != 2 || len(slo.Objectives[0].Windows) != 3 {
		t.Fatalf("/slo.json objectives = %+v", slo.Objectives)
	}
	if len(slo.Models) != 1 || slo.Models[0].Model != "pred" {
		t.Fatalf("/slo.json models = %+v", slo.Models)
	}

	// /incidents.json is an array even when empty.
	code, body = get(t, srv, "/incidents.json")
	if code != 200 || !strings.HasPrefix(strings.TrimSpace(string(body)), "[") {
		t.Fatalf("/incidents.json = %d %s", code, body)
	}

	// /models.json carries the registry in laked's shape.
	code, body = get(t, srv, "/models.json")
	if code != 200 || !strings.Contains(string(body), `"pred"`) {
		t.Fatalf("/models.json = %d %s", code, body)
	}

	rec.Emit(flightrec.DomainBoundary, flightrec.EvChannel, 0, 1, 0, 1000, 64, 0)
	rec.Emit(flightrec.DomainBoundary, flightrec.EvChannel, 0, 2, 0, 2000, 64, 0)
}

func TestHTTPTailCursorFlow(t *testing.T) {
	p, rec, _ := testPlane(t)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	rec.Emit(flightrec.DomainBoundary, flightrec.EvChannel, 0, 1, 0, 1000, 64, 0)
	rec.Emit(flightrec.DomainGPU, flightrec.EvExec, 0, 2, 0, 500, 50, 0)

	code, body := get(t, srv, "/flightrec.tail")
	if code != 200 {
		t.Fatalf("/flightrec.tail = %d", code)
	}
	var tail struct {
		Cursor  string `json:"cursor"`
		Skipped uint64 `json:"skipped"`
		Events  []struct {
			Domain string `json:"domain"`
			Kind   string `json:"kind"`
		} `json:"events"`
	}
	if err := json.Unmarshal(body, &tail); err != nil {
		t.Fatal(err)
	}
	if len(tail.Events) != 2 || tail.Skipped != 0 {
		t.Fatalf("tail = %+v", tail)
	}

	// Resuming from the returned cursor sees only what came after.
	rec.Emit(flightrec.DomainBoundary, flightrec.EvChannel, 0, 3, 0, 3000, 64, 0)
	code, body = get(t, srv, "/flightrec.tail?cursor="+tail.Cursor+"&max=10")
	if code != 200 {
		t.Fatalf("resumed tail = %d", code)
	}
	if err := json.Unmarshal(body, &tail); err != nil {
		t.Fatal(err)
	}
	if len(tail.Events) != 1 {
		t.Fatalf("resumed tail returned %d events, want 1", len(tail.Events))
	}

	// A malformed cursor is a client error, not a panic.
	if code, _ = get(t, srv, "/flightrec.tail?cursor=garbage"); code != 400 {
		t.Fatalf("bad cursor = %d, want 400", code)
	}
	if code, _ = get(t, srv, "/flightrec.tail?max=zap"); code != 400 {
		t.Fatalf("bad max = %d, want 400", code)
	}
}

// TestHTTPDumpOnDemand pins the on-demand dump contract: /flightrec.json
// answers 200 with a live Snapshot("http") even when no automatic dump has
// fired, and ?last=1 serves the retained trigger dump (404 until one
// exists).
func TestHTTPDumpOnDemand(t *testing.T) {
	p, rec, _ := testPlane(t)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	rec.Emit(flightrec.DomainBoundary, flightrec.EvChannel, 0, 1, 0, 1000, 64, 0)

	code, body := get(t, srv, "/flightrec.json")
	if code != 200 {
		t.Fatalf("/flightrec.json = %d, want on-demand 200", code)
	}
	d, err := flightrec.ReadDump(body)
	if err != nil || d.TotalEvents() != 1 {
		t.Fatalf("on-demand dump: %v, events %v", err, d)
	}
	if d.Reason != "http" {
		t.Fatalf("on-demand dump reason = %q", d.Reason)
	}

	// No automatic dump yet: ?last=1 is a 404, not an empty 200.
	if code, _ = get(t, srv, "/flightrec.json?last=1"); code != 404 {
		t.Fatalf("?last=1 with no dump = %d, want 404", code)
	}
	rec.TriggerDump("test trigger")
	code, body = get(t, srv, "/flightrec.json?last=1")
	if code != 200 {
		t.Fatalf("?last=1 after trigger = %d", code)
	}
	if d, err = flightrec.ReadDump(body); err != nil || d.Reason != "test trigger" {
		t.Fatalf("retained dump reason = %v %q", err, d.Reason)
	}
}

func TestHTTPReadyz503(t *testing.T) {
	p := New(Config{})
	p.SetShardProbe(func() []ShardHealth {
		return []ShardHealth{
			{Ordinal: 0, State: "Active", Ready: true},
			{Ordinal: 1, State: "Draining", Ready: false},
		}
	})
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	code, body := get(t, srv, "/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with unready shard = %d, want 503", code)
	}
	if !strings.Contains(string(body), "Draining") {
		t.Fatalf("/readyz body lacks shard detail: %s", body)
	}

	// No probe wired: trivially ready.
	bare := httptest.NewServer(New(Config{}).Handler())
	defer bare.Close()
	if code, _ := get(t, bare, "/readyz"); code != 200 {
		t.Fatalf("probe-less /readyz = %d, want 200", code)
	}
}
