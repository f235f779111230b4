package healthplane

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lakego/internal/core"
	"lakego/internal/flightrec"
	"lakego/internal/telemetry"
	"lakego/internal/vtime"
)

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
	p, _, _ := sourcedPlane()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	// /healthz is pure liveness.
	code, body := get(t, srv, "/healthz")
	if code != 200 {
		t.Fatalf("/healthz = %d", code)
	}
	var hz map[string]interface{}
	if err := json.Unmarshal(body, &hz); err != nil || hz["status"] != "ok" || hz["version"] != core.BuildVersion {
		t.Fatalf("/healthz body = %s (%v)", body, err)
	}

	// /readyz reflects the probe.
	code, body = get(t, srv, "/readyz")
	if code != 200 || !strings.Contains(string(body), `"ready": true`) {
		t.Fatalf("/readyz = %d %s", code, body)
	}

	// /statusz is the text one-pager.
	code, body = get(t, srv, "/statusz")
	if code != 200 || !strings.Contains(string(body), "objectives") {
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

	// /incidents.json is an array even when empty.
	code, body = get(t, srv, "/incidents.json")
	if code != 200 || !strings.HasPrefix(strings.TrimSpace(string(body)), "[") {
		t.Fatalf("/incidents.json = %d %s", code, body)
	}

	// No registry route: the plane reads models only through their events.
	if code, _ = get(t, srv, "/models.json"); code != 404 {
		t.Fatalf("/models.json = %d, want 404", code)
	}
}

func TestHTTPTailCursorFlow(t *testing.T) {
	p, rec, _ := sourcedPlane()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	rec.Emit(flightrec.DomainKernel, flightrec.EvCallEnd, 0, 1, 0, 7, 0, 1000)
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
	rec.Emit(flightrec.DomainKernel, flightrec.EvCallEnd, 0, 3, 0, 7, 0, 3000)
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
	// A max beyond what the rings hold is clamped, not allocated.
	if code, _ = get(t, srv, "/flightrec.tail?max=4294967296"); code != 200 {
		t.Fatalf("huge max = %d, want 200", code)
	}
}

// TestHTTPDumpOnDemand pins the on-demand dump contract: /flightrec.json
// answers 200 with a live Snapshot("http") even when no automatic dump has
// fired, and ?last=1 serves the retained trigger dump (404 until one
// exists). last parses as a boolean.
func TestHTTPDumpOnDemand(t *testing.T) {
	p, rec, _ := sourcedPlane()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	rec.Emit(flightrec.DomainKernel, flightrec.EvCallEnd, 0, 1, 0, 7, 0, 1000)

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

	// last is a boolean: a false value is the on-demand snapshot even while
	// a retained dump exists, and a value that is no boolean is a 400.
	for _, q := range []string{"last=0", "last=false", "last="} {
		code, body = get(t, srv, "/flightrec.json?"+q)
		if code != 200 {
			t.Fatalf("?%s = %d, want 200", q, code)
		}
		if d, err = flightrec.ReadDump(body); err != nil || d.Reason != "http" {
			t.Fatalf("?%s dump reason = %v %q, want the http snapshot", q, err, d.Reason)
		}
	}
	for _, q := range []string{"last=x", "last=yes", "last=2"} {
		if code, _ = get(t, srv, "/flightrec.json?"+q); code != 400 {
			t.Fatalf("?%s = %d, want 400", q, code)
		}
	}
}

func TestHTTPReadyz503(t *testing.T) {
	clock := vtime.New()
	rec := flightrec.New(clock, 256)
	p := newPlane(clock.Now, rec, telemetry.NewRegistry().Snapshot, func() []ShardHealth {
		return []ShardHealth{{State: "Dead", Ready: false}}
	})
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	code, body := get(t, srv, "/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with unready shard = %d, want 503", code)
	}
	if !strings.Contains(string(body), "Dead") {
		t.Fatalf("/readyz body lacks shard detail: %s", body)
	}
}
