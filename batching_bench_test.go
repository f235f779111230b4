// BenchmarkBatchedInference quantifies the cross-client batching subsystem
// (internal/batcher): N concurrent LinnOS-style clients each classify a
// stream of I/O feature vectors, either remoting their own single-item
// batches (the pre-batcher status quo) or routing through the lakeD
// batcher, which coalesces the independent streams into dynamically formed
// GPU launches. Reported metrics are simulated: requests per virtual
// second for both modes, the batched/unbatched speedup, and p99
// enqueue-to-delivery latency.
package lake_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"lakego/internal/batcher"
	"lakego/internal/boundary"
	"lakego/internal/core"
	"lakego/internal/linnos"
	"lakego/internal/nn"
	"lakego/internal/vtime"
)

const batchBenchPerClient = 64

// linnosFeature is the deterministic per-request input: client ci's r-th
// I/O. Both modes classify identical streams so results must be
// bit-identical.
func linnosFeature(ci, r int) []float32 {
	return linnos.FeatureVector((ci*31+r*7)%97, []time.Duration{
		time.Duration((ci+r)%11) * 200 * time.Microsecond,
		time.Duration(r%5) * 400 * time.Microsecond,
	})
}

type batchBenchRun struct {
	elapsed time.Duration   // total virtual time for all requests
	lats    []time.Duration // per-request virtual latency
	preds   []bool          // per-request prediction, indexed ci*perClient+r
}

func (r batchBenchRun) throughput() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(len(r.lats)) / r.elapsed.Seconds()
}

func (r batchBenchRun) p99() time.Duration {
	if len(r.lats) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), r.lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)*99/100]
}

// benchConfig builds the benchmark runtime configuration; telemetry is on
// by default (the production shape) and disabled only by the overhead
// comparison runs.
func benchConfig(disableTelemetry bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.DisableTelemetry = disableTelemetry
	return cfg
}

// runUnbatchedLinnOS is the baseline: every client remotes its own
// single-request batches through its own predictor staging, as today's
// per-subsystem integration does.
func runUnbatchedLinnOS(tb testing.TB, clients, perClient int) batchBenchRun {
	tb.Helper()
	rt, err := core.New(benchConfig(false))
	if err != nil {
		tb.Fatal(err)
	}
	defer rt.Close()
	net := nn.New(3, linnos.Base.Sizes()...)
	preds := make([]*linnos.Predictor, clients)
	for i := range preds {
		if preds[i], err = linnos.NewPredictor(rt, linnos.Base, net); err != nil {
			tb.Fatal(err)
		}
	}
	run := batchBenchRun{
		lats:  make([]time.Duration, clients*perClient),
		preds: make([]bool, clients*perClient),
	}
	start := rt.Clock().Now()
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				sw := vtime.StartStopwatch(rt.Clock())
				slow, _, err := preds[ci].InferLAKE([][]float32{linnosFeature(ci, r)}, true)
				if err != nil {
					errCh <- err
					return
				}
				run.lats[ci*perClient+r] = sw.Elapsed()
				run.preds[ci*perClient+r] = slow[0]
			}
		}(ci)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		tb.Fatal(err)
	}
	run.elapsed = rt.Clock().Now() - start
	return run
}

// runBatchedLinnOS routes the same request streams through the batching
// subsystem and asserts the flush deadline was honored.
func runBatchedLinnOS(tb testing.TB, clients, perClient int) batchBenchRun {
	return runBatchedLinnOSCfg(tb, clients, perClient, benchConfig(false))
}

// runBatchedLinnOSCfg is runBatchedLinnOS on an explicit runtime
// configuration; the telemetry overhead comparisons flip DisableTelemetry.
func runBatchedLinnOSCfg(tb testing.TB, clients, perClient int, rcfg core.Config) batchBenchRun {
	tb.Helper()
	rt, err := core.New(rcfg)
	if err != nil {
		tb.Fatal(err)
	}
	defer rt.Close()
	pred, err := linnos.NewPredictor(rt, linnos.Base, nn.New(3, linnos.Base.Sizes()...))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := batcher.DefaultConfig()
	cfg.MaxBatch = clients
	cfg.MaxWait = 200 * time.Microsecond
	cfg.Linger = 200 * time.Microsecond
	cfg.ClientDepth = 4
	b := rt.NewBatcher(cfg)
	if err := pred.Runner().EnableBatching(b); err != nil {
		tb.Fatal(err)
	}
	run := batchBenchRun{
		lats:  make([]time.Duration, clients*perClient),
		preds: make([]bool, clients*perClient),
	}
	start := rt.Clock().Now()
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := b.Client(fmt.Sprintf("queue-%d", ci))
			for r := 0; r < perClient; r++ {
				p, err := pred.SubmitBatched(c, [][]float32{linnosFeature(ci, r)})
				if err != nil {
					errCh <- err
					return
				}
				slow, err := linnos.WaitSlow(p)
				if err != nil {
					errCh <- err
					return
				}
				run.lats[ci*perClient+r] = p.Latency()
				run.preds[ci*perClient+r] = slow[0]
			}
		}(ci)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		tb.Fatal(err)
	}
	run.elapsed = rt.Clock().Now() - start
	if st := b.Stats(); st.MaxQueueDelay > cfg.MaxWait {
		tb.Fatalf("flush deadline violated: max queue delay %v > MaxWait %v (stats %+v)",
			st.MaxQueueDelay, cfg.MaxWait, st)
	}
	return run
}

func BenchmarkBatchedInference(b *testing.B) {
	for _, clients := range []int{1, 8, 32, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			var batched, unbatched batchBenchRun
			for i := 0; i < b.N; i++ {
				unbatched = runUnbatchedLinnOS(b, clients, batchBenchPerClient)
				batched = runBatchedLinnOS(b, clients, batchBenchPerClient)
			}
			for i := range batched.preds {
				if batched.preds[i] != unbatched.preds[i] {
					b.Fatalf("request %d: batched prediction differs from unbatched", i)
				}
			}
			b.ReportMetric(batched.throughput(), "batched_req_per_s")
			b.ReportMetric(unbatched.throughput(), "unbatched_req_per_s")
			b.ReportMetric(batched.throughput()/unbatched.throughput(), "speedup")
			b.ReportMetric(float64(batched.p99().Microseconds()), "batched_p99_us")
			b.ReportMetric(float64(unbatched.p99().Microseconds()), "unbatched_p99_us")
		})
	}
}

// BenchmarkBatchedInferenceRing pits the batched workload charged the
// descriptor rings' cost row against the same workload charged the default
// Netlink row: identical streams, bit-identical predictions, the ring's
// cheaper boundary crossings raising the throughput ceiling.
func BenchmarkBatchedInferenceRing(b *testing.B) {
	const clients = 32
	ringCfg := benchConfig(false)
	ringCfg.Channel = boundary.Ring
	var ring, channel batchBenchRun
	for i := 0; i < b.N; i++ {
		channel = runBatchedLinnOSCfg(b, clients, batchBenchPerClient, benchConfig(false))
		ring = runBatchedLinnOSCfg(b, clients, batchBenchPerClient, ringCfg)
	}
	for i := range ring.preds {
		if ring.preds[i] != channel.preds[i] {
			b.Fatalf("request %d: ring-row prediction differs from netlink-row run", i)
		}
	}
	b.ReportMetric(ring.throughput(), "ring_req_per_s")
	b.ReportMetric(channel.throughput(), "channel_req_per_s")
	b.ReportMetric(ring.throughput()/channel.throughput(), "speedup")
	b.ReportMetric(float64(ring.p99().Microseconds()), "ring_p99_us")
}

// BenchmarkBatchedInferenceTelemetry pits the same batched workload with
// the observability plane enabled (the default) against a runtime booted
// with DisableTelemetry, so benchdiff and the CI gate can watch the
// instrumentation's hot-path cost directly. The acceptance bound (<5%
// wall-clock overhead) is enforced by TestTelemetryOverhead.
func BenchmarkBatchedInferenceTelemetry(b *testing.B) {
	const clients = 32
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"enabled", false}, {"disabled", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var run batchBenchRun
			for i := 0; i < b.N; i++ {
				run = runBatchedLinnOSCfg(b, clients, batchBenchPerClient, benchConfig(mode.disable))
			}
			b.ReportMetric(run.throughput(), "req_per_vs")
		})
	}
}

// TestBatchedInferenceSpeedup pins the headline acceptance number: at 32
// concurrent LinnOS-style clients, cross-client batching must at least
// double throughput over unbatched remoting, with bit-identical
// predictions (the deadline bound is asserted inside runBatchedLinnOS).
func TestBatchedInferenceSpeedup(t *testing.T) {
	const clients = 32
	unbatched := runUnbatchedLinnOS(t, clients, batchBenchPerClient)
	batched := runBatchedLinnOS(t, clients, batchBenchPerClient)
	for i := range batched.preds {
		if batched.preds[i] != unbatched.preds[i] {
			t.Fatalf("request %d: batched prediction differs from unbatched", i)
		}
	}
	speedup := batched.throughput() / unbatched.throughput()
	t.Logf("unbatched %.0f req/s, batched %.0f req/s, speedup %.2fx, p99 %v vs %v",
		unbatched.throughput(), batched.throughput(), speedup, unbatched.p99(), batched.p99())
	if speedup < 2 {
		t.Fatalf("speedup %.2fx < 2x acceptance threshold", speedup)
	}
}
