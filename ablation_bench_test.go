// Ablation benchmarks: each quantifies one design decision the paper (and
// DESIGN.md) calls out, by measuring the system with the decision reversed.
//
//   - Netlink as the command channel vs the three alternatives of Table 2
//   - lakeShm zero-copy staging vs inline data on the command channel
//   - batch-formation quantum in the LinnOS LAKE replay
//   - the Fig 3 policy's utilization threshold under contention
//   - benefit-aware ML modulation (§7.1 future work) vs always-on ML
package lake_test

import (
	"fmt"
	"testing"
	"time"

	"lakego/internal/boundary"
	"lakego/internal/contention"
	"lakego/internal/core"
	"lakego/internal/cuda"
	"lakego/internal/linnos"
	"lakego/internal/policy"
	"lakego/internal/shm"
	"lakego/internal/trace"
)

// BenchmarkAblationChannelKind runs the same remoted call sequence charged
// every kernel<->user channel's cost row. Netlink should show the lowest
// modeled channel time among the non-spinning mechanisms (§6's rationale).
func BenchmarkAblationChannelKind(b *testing.B) {
	for _, kind := range boundary.Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			rt, err := core.New(core.Config{Channel: kind})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Close()
			rt.RegisterKernel(cuda.VecAddKernel())
			lib := rt.Lib()
			ctx, _ := lib.CuCtxCreate("ablation")
			mod, _ := lib.CuModuleLoad("m")
			fn, _ := lib.CuModuleGetFunction(mod, "vecadd")
			buf, _ := rt.Region().Alloc(4 * 64)
			dp, _ := lib.CuMemAlloc(4 * 64)
			for i := 0; i < b.N; i++ {
				lib.CuMemcpyHtoDShm(dp, buf, 4*64)
				lib.CuLaunchKernel(ctx, fn, []uint64{uint64(dp), uint64(dp), uint64(dp), 64})
			}
			_, channel := lib.Stats()
			calls, _ := lib.Stats()
			b.ReportMetric(float64(channel.Microseconds())/float64(calls), "us_per_call")
		})
	}
}

// BenchmarkAblationZeroCopy compares moving payloads through lakeShm
// (offset-only commands) against inlining them in the command channel, the
// double-copy path §4.1 warns about.
func BenchmarkAblationZeroCopy(b *testing.B) {
	for _, size := range []int64{4 << 10, 64 << 10, 1 << 20} {
		for _, via := range []string{"shm", "inline"} {
			b.Run(fmt.Sprintf("%s_%dK", via, size/1024), func(b *testing.B) {
				rt, err := core.New(core.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				defer rt.Close()
				lib := rt.Lib()
				dp, r := lib.CuMemAlloc(size)
				if r != cuda.Success {
					b.Fatal(r)
				}
				var buf shm.Buffer
				var inline []byte
				if via == "shm" {
					if buf, err = rt.Region().Alloc(size); err != nil {
						b.Fatal(err)
					}
				} else {
					inline = make([]byte, size)
				}
				start := rt.Clock().Now()
				for i := 0; i < b.N; i++ {
					if via == "shm" {
						if r := lib.CuMemcpyHtoDShm(dp, buf, size); r != cuda.Success {
							b.Fatal(r)
						}
					} else {
						if r := lib.CuMemcpyHtoD(dp, inline); r != cuda.Success {
							b.Fatal(r)
						}
					}
				}
				elapsed := rt.Clock().Now() - start
				b.ReportMetric(float64(elapsed.Microseconds())/float64(b.N), "us_per_copy")
			})
		}
	}
}

// BenchmarkAblationBatchQuantum sweeps the LinnOS batch-formation quantum:
// shorter quanta cut waiting but shrink batches below the profitability
// threshold; longer quanta amortize the GPU but inflate latency.
func BenchmarkAblationBatchQuantum(b *testing.B) {
	rt, err := core.New(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	net, err := linnos.TrainedNetwork(linnos.Base)
	if err != nil {
		b.Fatal(err)
	}
	pred, err := linnos.NewPredictor(rt, linnos.Base, net)
	if err != nil {
		b.Fatal(err)
	}
	w := linnos.MixedWorkload("Mixed+", 1500, 15, 3)
	for _, q := range []time.Duration{50 * time.Microsecond, 100 * time.Microsecond, 400 * time.Microsecond} {
		b.Run(q.String(), func(b *testing.B) {
			cfg := linnos.DefaultReplayConfig(linnos.ModeLAKE)
			cfg.Quantum = q
			var res linnos.Result
			for i := 0; i < b.N; i++ {
				if res, err = linnos.Replay(pred, w, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.AvgRead.Microseconds()), "avg_read_us")
			b.ReportMetric(float64(res.GPUBatches), "gpu_batches")
		})
	}
}

// BenchmarkAblationUtilThreshold sweeps the Fig 3 policy's exec_threshold:
// too low and the kernel never uses the GPU; too high and it tramples the
// user process.
func BenchmarkAblationUtilThreshold(b *testing.B) {
	for _, thresh := range []int{10, 40, 90} {
		b.Run(fmt.Sprintf("%dpct", thresh), func(b *testing.B) {
			var s contention.Fig13Summary
			for i := 0; i < b.N; i++ {
				rt, err := core.New(core.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				pts := fig13WithThreshold(rt, thresh)
				s = contention.Summarize(pts)
				rt.Close()
			}
			b.ReportMetric(s.CPUFraction*100, "cpu_fallback_pct")
			boolMetric(b, "hashing_stable", s.HashingStable)
		})
	}
}

func boolMetric(b *testing.B, name string, v bool) {
	f := 0.0
	if v {
		f = 1
	}
	b.ReportMetric(f, name)
}

// fig13WithThreshold reruns the Fig 13 scenario with a custom policy
// threshold by driving the same occupancy schedule manually.
func fig13WithThreshold(rt *core.Runtime, threshold int) []contention.Fig13Point {
	clock := rt.Clock()
	dev := rt.Device()
	pcfg := policy.DefaultAdaptiveConfig()
	pcfg.UtilThreshold = threshold
	pol := policy.NewAdaptive(pcfg, clock, func() int {
		g, _, res := rt.Lib().NvmlGetUtilization()
		if res != cuda.Success {
			return 100
		}
		return g
	})
	var out []contention.Fig13Point
	for t := time.Duration(0); t <= contention.Fig13Horizon; t += contention.Step {
		clock.AdvanceTo(t)
		hashingGPU := t >= contention.Fig13T2 && t < contention.Fig13T3
		p := contention.Fig13Point{T: t}
		if pol.Decide(32) == policy.UseGPU {
			occupy(dev, "kernel-predictor", t, 0.15)
			p.PredictorNorm, p.OnGPU = 1.0, true
		} else {
			p.PredictorNorm = 0.45
		}
		if hashingGPU {
			occupy(dev, "user-hash", t, 0.72)
			// With an over-permissive threshold the kernel stays on the
			// GPU and the user process loses its share.
			if p.OnGPU && threshold >= 90 {
				p.HashingNorm = 0.8
			} else {
				p.HashingNorm = 1.0
			}
		}
		out = append(out, p)
	}
	return out
}

func occupy(dev interface {
	OccupySpan(client string, start, end time.Duration)
}, client string, stepStart time.Duration, frac float64) {
	const slices = 10
	sliceLen := contention.Step / slices
	busy := time.Duration(frac * float64(sliceLen))
	for k := 0; k < slices; k++ {
		s := stepStart + time.Duration(k)*sliceLen
		dev.OccupySpan(client, s, s+busy)
	}
}

// BenchmarkAblationAutoML compares always-on ML with the §7.1 future-work
// benefit monitor on a workload where ML does not help: modulation should
// recover most of the overhead.
func BenchmarkAblationAutoML(b *testing.B) {
	rt, err := core.New(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	net, err := linnos.TrainedNetwork(linnos.Base)
	if err != nil {
		b.Fatal(err)
	}
	pred, err := linnos.NewPredictor(rt, linnos.Base, net)
	if err != nil {
		b.Fatal(err)
	}
	w := linnos.SingleTraceWorkload(trace.Azure(), 3, 2500, 11)
	var always, auto linnos.Result
	var autoRes linnos.AutoMLResult
	for i := 0; i < b.N; i++ {
		if always, err = linnos.Replay(pred, w, linnos.DefaultReplayConfig(linnos.ModeCPU)); err != nil {
			b.Fatal(err)
		}
		if autoRes, err = linnos.ReplayAutoML(pred, w, linnos.DefaultReplayConfig(linnos.ModeCPU)); err != nil {
			b.Fatal(err)
		}
		auto = autoRes.Result
	}
	b.ReportMetric(float64(always.AvgRead.Microseconds()), "always_ml_us")
	b.ReportMetric(float64(auto.AvgRead.Microseconds()), "modulated_us")
	b.ReportMetric(autoRes.MLFraction*100, "ml_used_pct")
}
