// Acceptance tests for the observability plane: a remoted call on a default
// runtime must produce a complete stage timeline on /spans.json, the
// batcher's coalescing must appear on the flush call's span, and keeping
// telemetry enabled (its default) must cost the batched-inference workload
// exactly its pinned events and observations per request and per flush.
package lake_test

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	lake "lakego"
	"lakego/internal/batcher"
	"lakego/internal/linnos"
	"lakego/internal/nn"
)

// servedSpans fetches /spans.json from the runtime's health plane — the
// route laked mounts — and decodes it.
func servedSpans(t *testing.T, rt *lake.Runtime) []lake.Span {
	t.Helper()
	rec := httptest.NewRecorder()
	lake.NewHealthPlane(rt, lake.HealthPlaneConfig{}).Handler().
		ServeHTTP(rec, httptest.NewRequest("GET", "/spans.json", nil))
	if rec.Code != 200 {
		t.Fatalf("/spans.json = %d: %s", rec.Code, rec.Body)
	}
	var spans []lake.Span
	if err := json.Unmarshal(rec.Body.Bytes(), &spans); err != nil {
		t.Fatalf("/spans.json does not parse: %v\n%s", err, rec.Body)
	}
	return spans
}

// stageWidths checks every stage lies inside the span's virtual window and
// returns each stage's virtual width.
func stageWidths(t *testing.T, sp lake.Span) map[string]time.Duration {
	t.Helper()
	if sp.VEnd < sp.VStart {
		t.Fatalf("span virtual bounds inverted: [%d, %d]", sp.VStart, sp.VEnd)
	}
	width := map[string]time.Duration{}
	for _, st := range sp.Stages {
		width[st.Name] = st.VEnd - st.VStart
		if st.VStart < sp.VStart || st.VEnd > sp.VEnd || st.VEnd < st.VStart {
			t.Errorf("stage %s virtual window [%d, %d] escapes span [%d, %d]",
				st.Name, st.VStart, st.VEnd, sp.VStart, sp.VEnd)
		}
	}
	return width
}

// TestTracedInferenceTimeline follows one offloaded call end to end: on a
// default runtime, no option set, a remoted cuLaunchKernel must appear on
// /spans.json with the stitcher's stages — serialize, queue, copy, exec,
// boundary — all timestamped on the virtual clock inside the span window.
func TestTracedInferenceTimeline(t *testing.T) {
	rt, err := lake.New(lake.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.RegisterKernel(lake.VecAddKernel())
	lib := rt.Lib()
	ctx, r := lib.CuCtxCreate("trace-test")
	if r != lake.Success {
		t.Fatalf("cuCtxCreate: %s", r)
	}
	mod, _ := lib.CuModuleLoad("kernels.cubin")
	fn, r := lib.CuModuleGetFunction(mod, "vecadd")
	if r != lake.Success {
		t.Fatalf("cuModuleGetFunction: %s", r)
	}
	const n = 16
	da, _ := lib.CuMemAlloc(4 * n)
	dc, _ := lib.CuMemAlloc(4 * n)
	if r := lib.CuLaunchKernel(ctx, fn, []uint64{uint64(da), uint64(da), uint64(dc), n}); r != lake.Success {
		t.Fatalf("launch: %s", r)
	}

	spans := servedSpans(t, rt)
	var launch *lake.Span
	for i := range spans {
		if spans[i].Name == "cuLaunchKernel" {
			launch = &spans[i]
		}
	}
	if launch == nil {
		t.Fatalf("no cuLaunchKernel span in %+v", spans)
	}
	if launch.Result != uint64(lake.Success) {
		t.Errorf("span result = %d, want Success", launch.Result)
	}
	width := stageWidths(t, *launch)
	for _, want := range []string{"serialize", "queue", "copy", "exec", "boundary"} {
		if _, ok := width[want]; !ok {
			t.Errorf("timeline missing stage %q (have %v)", want, launch.Stages)
		}
	}
	// The modeled work — the channel round trip and the device launch —
	// must occupy virtual time; the host-only stages need not.
	for _, st := range []string{"boundary", "exec"} {
		if width[st] == 0 {
			t.Errorf("stage %s has zero virtual width", st)
		}
	}
}

// TestBatchedCoalesceTrace drives one flush through the batching subsystem
// on a default runtime and asserts the flush call's span records the
// coalesce window ahead of the remoted call's own stages.
func TestBatchedCoalesceTrace(t *testing.T) {
	rt, err := lake.New(lake.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pred, err := linnos.NewPredictor(rt, linnos.Base, nn.New(3, linnos.Base.Sizes()...))
	if err != nil {
		t.Fatal(err)
	}
	bcfg := batcher.DefaultConfig()
	bcfg.MaxWait = 100 * time.Microsecond
	b := batcher.New(rt, bcfg)
	if err := pred.Runner().EnableBatching(b); err != nil {
		t.Fatal(err)
	}
	c := b.Client("trace-client")
	p, err := pred.SubmitBatched(c, [][]float32{linnosFeature(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pred.Wait(p); err != nil {
		t.Fatal(err)
	}

	spans := servedSpans(t, rt)
	var flush *lake.Span
	for i := range spans {
		if spans[i].Name == "lakeBatchedInfer" {
			flush = &spans[i]
		}
	}
	if flush == nil {
		t.Fatalf("no flush span in %+v", spans)
	}
	width := stageWidths(t, *flush)
	// The lone request waited out the max-wait deadline before the flush.
	if width["coalesce"] != bcfg.MaxWait {
		t.Errorf("coalesce = %v, want the %v deadline (stages %v)", width["coalesce"], bcfg.MaxWait, flush.Stages)
	}
	for _, st := range []string{"exec", "boundary"} {
		if width[st] == 0 {
			t.Errorf("flush span stage %s has zero virtual width (stages %v)", st, flush.Stages)
		}
	}
}

// TestTelemetryOverhead is the acceptance guard on instrumentation cost,
// stated as counts: on the batched-inference workload with telemetry
// enabled (the default runtime shape), each request costs exactly
// telemetryPerRequest recorder events and histogram observations, and each
// flush exactly telemetryPerFlush. Which requests share a flush depends on
// goroutine scheduling, so the flush count varies run to run; the budget per
// request and per flush does not, under -race or not. An extra event or
// observation anywhere on the request or flush path fails it. A disabled
// runtime records nothing.
func TestTelemetryOverhead(t *testing.T) {
	const clients = 32
	type budget struct{ events, observations int64 }
	var (
		// The request's EvEnqueue and its enqueue-to-flush wait.
		telemetryPerRequest = budget{events: 1, observations: 1}
		// The flush's start and end, its one remoted call (lakeLib's call
		// start and end, lakeD's execution end), the gather and scatter
		// copies and the launch; its size, per-item latency, call latency,
		// boundary round trip, device exec and queue wait and the two
		// copies' transfer times.
		telemetryPerFlush = budget{events: 8, observations: 8}
	)
	run := runBatchedLinnOSCfg(t, clients, batchBenchPerClient, benchConfig(false))
	requests := int64(clients * batchBenchPerClient)
	want := budget{
		events:       telemetryPerRequest.events*requests + telemetryPerFlush.events*run.flushes,
		observations: telemetryPerRequest.observations*requests + telemetryPerFlush.observations*run.flushes,
	}
	if got := (budget{run.events, run.observations}); got != want {
		t.Fatalf("%d requests in %d flushes cost %d events and %d observations; the budget "+
			"(%+v a request, %+v a flush) is %d and %d",
			requests, run.flushes, got.events, got.observations,
			telemetryPerRequest, telemetryPerFlush, want.events, want.observations)
	}
	t.Logf("%d requests, %d flushes: %.3f events and %.3f observations a request",
		requests, run.flushes, float64(run.events)/float64(requests), float64(run.observations)/float64(requests))
	if off := runBatchedLinnOSCfg(t, clients, batchBenchPerClient, benchConfig(true)); off.events != 0 || off.observations != 0 {
		t.Fatalf("telemetry disabled, the workload still cost %d events and %d observations", off.events, off.observations)
	}
}

// TestRuntimeMetricsPopulated sanity-checks the registry end to end on a
// real workload: the per-layer counters that must move, move, and both
// export formats carry them.
func TestRuntimeMetricsPopulated(t *testing.T) {
	rt, err := lake.New(benchConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pred, err := linnos.NewPredictor(rt, linnos.Base, nn.New(3, linnos.Base.Sizes()...))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := pred.InferLAKE([][]float32{linnosFeature(0, i)}, true); err != nil {
			t.Fatal(err)
		}
	}
	tel := rt.Telemetry()
	snap := tel.Snapshot()
	for _, name := range []string{
		`lake_boundary_sent_total{channel="Netlink"}`,
		"lake_lib_calls_total",
		"lake_daemon_handled_total",
		"lake_gpu_launches_total",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s did not move (snapshot %+v)", name, snap.Counters)
		}
	}
	if h, ok := snap.Histograms["lake_lib_call_latency_ns"]; !ok || h.Count == 0 {
		t.Error("lake_lib_call_latency_ns histogram empty")
	}
	text := tel.PrometheusText()
	for _, want := range []string{"# TYPE lake_lib_calls_total counter", "lake_gpu_launches_total "} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

// TestTelemetryDisabledIsNil pins the disabled contract: Telemetry()
// returns nil and the nil registry degrades safely everywhere a caller
// might poke it.
func TestTelemetryDisabledIsNil(t *testing.T) {
	rt, err := lake.New(benchConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	tel := rt.Telemetry()
	if tel != nil {
		t.Fatalf("Telemetry() = %v on a DisableTelemetry runtime, want nil", tel)
	}
	// Exercising the runtime with a nil registry must not panic anywhere.
	lib := rt.Lib()
	if _, r := lib.CuCtxCreate("no-telemetry"); r != lake.Success {
		t.Fatalf("cuCtxCreate: %s", r)
	}
	if tel.Counter("x", "").Value() != 0 {
		t.Fatal("nil registry counter should read 0")
	}
}
