// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§6-§7). Each benchmark drives the same code paths as
// cmd/lakebench and reports the simulated headline metric of its artifact
// via b.ReportMetric, so `go test -bench=. -benchmem` regenerates the whole
// evaluation. Wall-clock ns/op measures the simulator itself; the custom
// metrics are the paper-comparable numbers.
package lake_test

import (
	"testing"
	"time"

	"lakego/internal/boundary"
	"lakego/internal/contention"
	"lakego/internal/core"
	"lakego/internal/ecryptfs"
	"lakego/internal/experiments"
	"lakego/internal/kleio"
	"lakego/internal/kml"
	"lakego/internal/linnos"
	"lakego/internal/malware"
	"lakego/internal/mllb"
	"lakego/internal/nn"
	"lakego/internal/offload"
	"lakego/internal/trace"
)

func newRT(b *testing.B) *core.Runtime {
	b.Helper()
	rt, err := core.New(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Close)
	return rt
}

// BenchmarkTable2Channels measures doorbell call time and latency for each
// kernel<->user mechanism (paper Table 2).
func BenchmarkTable2Channels(b *testing.B) {
	for _, k := range boundary.Kinds() {
		b.Run(k.String(), func(b *testing.B) {
			var call, lat time.Duration
			for i := 0; i < b.N; i++ {
				call = boundary.CallTime(k)
				lat = boundary.DoorbellLatency(k)
			}
			b.ReportMetric(float64(call.Microseconds()), "calltime_us")
			b.ReportMetric(float64(lat.Microseconds()), "latency_us")
		})
	}
}

// BenchmarkFig6NetlinkSize measures Netlink command round trips end to end
// through the real transport at each Fig 6 message size.
func BenchmarkFig6NetlinkSize(b *testing.B) {
	for _, size := range []int{128, 1024, 4096, 8192, 16384, 32768} {
		b.Run(sizeName(size), func(b *testing.B) {
			rt := newRT(b)
			tr, err := boundary.NewRingTransport(rt.Clock(), nil, 4, 0)
			if err != nil {
				b.Fatal(err)
			}
			tr.SetCostModel(boundary.Netlink)
			msg := make([]byte, size)
			var d time.Duration
			for i := 0; i < b.N; i++ {
				if err := tr.SendToUser(msg); err != nil {
					b.Fatal(err)
				}
				if _, ok := tr.RecvInUser(); !ok {
					b.Fatal("message lost")
				}
				d = tr.ChargeRoundTrip(size)
			}
			b.ReportMetric(float64(d.Nanoseconds())/1e3, "roundtrip_us")
		})
	}
}

func sizeName(n int) string {
	if n >= 1024 {
		return itoa(n/1024) + "K"
	}
	return itoa(n) + "B"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkTable4Traces regenerates each Table 4 trace and reports its
// average IOPS.
func BenchmarkTable4Traces(b *testing.B) {
	for _, p := range trace.Profiles() {
		b.Run(p.Name, func(b *testing.B) {
			var s trace.Stats
			for i := 0; i < b.N; i++ {
				s = trace.Measure(p.Generate(42, 10000))
			}
			b.ReportMetric(s.AvgIOPS, "iops")
			b.ReportMetric(s.AvgReadKB, "read_kb")
			b.ReportMetric(s.AvgWriteKB, "write_kb")
		})
	}
}

// BenchmarkTable3Crossovers measures every workload's GPU profitability
// crossover (paper Table 3).
func BenchmarkTable3Crossovers(b *testing.B) {
	rt := newRT(b)
	rt.Clock().Advance(time.Second)
	b.Run("linnos", func(b *testing.B) {
		var cross int
		for i := 0; i < b.N; i++ {
			pts, err := linnos.InferenceSweep(rt, linnos.Base, offload.StandardBatches())
			if err != nil {
				b.Fatal(err)
			}
			cross = offload.Crossover(pts)
		}
		b.ReportMetric(float64(cross), "crossover_batch")
	})
	b.Run("mllb", func(b *testing.B) {
		bal, err := mllb.New(rt, nn.New(1, mllb.Sizes()...))
		if err != nil {
			b.Fatal(err)
		}
		var cross int
		for i := 0; i < b.N; i++ {
			pts, err := mllb.Sweep(bal, offload.StandardBatches())
			if err != nil {
				b.Fatal(err)
			}
			cross = offload.Crossover(pts)
		}
		b.ReportMetric(float64(cross), "crossover_batch")
	})
	b.Run("kml", func(b *testing.B) {
		cls, err := kml.New(rt, nn.New(2, kml.Sizes()...))
		if err != nil {
			b.Fatal(err)
		}
		var cross int
		for i := 0; i < b.N; i++ {
			pts, err := kml.Sweep(cls, offload.StandardBatches())
			if err != nil {
				b.Fatal(err)
			}
			cross = offload.Crossover(pts)
		}
		b.ReportMetric(float64(cross), "crossover_batch")
	})
}

// BenchmarkFig1Contention runs the unmanaged contention timeline and
// reports the worst-case user-space degradation (paper Fig 1: up to 68%).
func BenchmarkFig1Contention(b *testing.B) {
	var deg float64
	for i := 0; i < b.N; i++ {
		rt := newRT(b)
		deg = contention.Fig1Degradation(contention.Fig1(rt))
	}
	b.ReportMetric(deg*100, "degradation_pct")
}

// BenchmarkFig7ReadLatency replays the Fig 7 workload matrix (reduced trace
// length) and reports baseline vs ML average read latency on Mixed+.
func BenchmarkFig7ReadLatency(b *testing.B) {
	rt := newRT(b)
	net, err := linnos.TrainedNetwork(linnos.Base)
	if err != nil {
		b.Fatal(err)
	}
	pred, err := linnos.NewPredictor(rt, linnos.Base, net)
	if err != nil {
		b.Fatal(err)
	}
	w := linnos.MixedWorkload("Mixed+", 2000, 15, 3)
	var base, lake linnos.Result
	for i := 0; i < b.N; i++ {
		if base, err = linnos.Replay(rt, nil, w, linnos.DefaultReplayConfig(linnos.ModeBaseline)); err != nil {
			b.Fatal(err)
		}
		if lake, err = linnos.Replay(rt, pred, w, linnos.DefaultReplayConfig(linnos.ModeLAKE)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(base.AvgRead.Microseconds()), "baseline_us")
	b.ReportMetric(float64(lake.AvgRead.Microseconds()), "lake_us")
	b.ReportMetric((1-float64(lake.AvgRead)/float64(base.AvgRead))*100, "improvement_pct")
}

// BenchmarkFig8Inference measures LinnOS inference at the paper's quoted
// operating point (batch 8) for each model variant and reports the GPU
// speedup at batch 1024.
func BenchmarkFig8Inference(b *testing.B) {
	for _, kind := range linnos.Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			rt := newRT(b)
			rt.Clock().Advance(time.Second)
			var pts []offload.SweepPoint
			var err error
			for i := 0; i < b.N; i++ {
				pts, err = linnos.InferenceSweep(rt, kind, []int{8, 1024})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pts[0].CPU.Microseconds()), "cpu8_us")
			b.ReportMetric(float64(pts[0].LAKE.Microseconds()), "lake8_us")
			b.ReportMetric(float64(pts[1].CPU)/float64(pts[1].LAKE), "speedup_1024")
		})
	}
}

// BenchmarkFig9PageWarmth measures Kleio classification through the
// high-level API at the extremes of Fig 9's batch range.
func BenchmarkFig9PageWarmth(b *testing.B) {
	rt := newRT(b)
	cls, err := kleio.New(rt, 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{20, 1160} {
		b.Run(itoa(n)+"pages", func(b *testing.B) {
			pages := make([]kleio.PageHistory, n)
			var d time.Duration
			for i := 0; i < b.N; i++ {
				if _, d, err = cls.ClassifyLAKE(pages); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(d.Milliseconds()), "lake_ms")
		})
	}
}

// BenchmarkFig10LoadBalance measures MLLB classification around its
// crossover (paper: GPU profitable beyond 256 tasks).
func BenchmarkFig10LoadBalance(b *testing.B) {
	rt := newRT(b)
	bal, err := mllb.New(rt, nn.New(3, mllb.Sizes()...))
	if err != nil {
		b.Fatal(err)
	}
	var pts []offload.SweepPoint
	for i := 0; i < b.N; i++ {
		if pts, err = mllb.Sweep(bal, []int{256, 1024}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pts[0].CPU.Microseconds()), "cpu256_us")
	b.ReportMetric(float64(pts[0].LAKE.Microseconds()), "lake256_us")
	b.ReportMetric(float64(pts[1].CPU)/float64(pts[1].LAKE), "speedup_1024")
}

// BenchmarkFig11Prefetch measures KML readahead classification around its
// crossover (paper: GPU profitable beyond 64 inputs).
func BenchmarkFig11Prefetch(b *testing.B) {
	rt := newRT(b)
	cls, err := kml.New(rt, nn.New(4, kml.Sizes()...))
	if err != nil {
		b.Fatal(err)
	}
	var pts []offload.SweepPoint
	for i := 0; i < b.N; i++ {
		if pts, err = kml.Sweep(cls, []int{64, 1024}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pts[0].CPU.Microseconds()), "cpu64_us")
	b.ReportMetric(float64(pts[0].LAKE.Microseconds()), "lake64_us")
	b.ReportMetric(float64(pts[1].CPU)/float64(pts[1].LAKE), "speedup_1024")
}

// BenchmarkFig12Malware measures the full-size KNN workload (4096 queries,
// 16384 refs) at representative feature counts and reports the GPU speedup
// (paper: ~1.5kx).
func BenchmarkFig12Malware(b *testing.B) {
	rt := newRT(b)
	var pts []malware.Fig12Point
	var err error
	for i := 0; i < b.N; i++ {
		if pts, err = malware.Fig12Sweep(rt, []int{8, 128, 1024}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pts[0].CPU)/float64(pts[0].LAKE), "speedup_d8")
	b.ReportMetric(float64(pts[2].CPU)/float64(pts[2].LAKE), "speedup_d1024")
	b.ReportMetric(float64(pts[2].LAKESync-pts[2].Direct)/float64(pts[2].Direct)*100, "lake_overhead_pct")
}

// BenchmarkFig13Adaptive runs the managed contention timeline and reports
// how quickly the policy reclaims the GPU after the user process exits.
func BenchmarkFig13Adaptive(b *testing.B) {
	var s contention.Fig13Summary
	for i := 0; i < b.N; i++ {
		rt := newRT(b)
		s = contention.Summarize(contention.Fig13(rt))
	}
	b.ReportMetric(s.CPUFraction*100, "cpu_fallback_pct")
	b.ReportMetric(s.ReclaimedBy.Seconds(), "reclaim_s")
}

// BenchmarkFig14Encryption measures eCryptfs write+read of real AES-GCM
// data per engine and reports the modeled read throughput at 2 MiB blocks.
func BenchmarkFig14Encryption(b *testing.B) {
	data := make([]byte, 1<<20)
	for _, e := range ecryptfs.Engines() {
		b.Run(e.String(), func(b *testing.B) {
			fs, err := ecryptfs.NewFS(e, nil, 2<<20, "bench")
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := fs.Write("f", data); err != nil {
					b.Fatal(err)
				}
				if _, _, err := fs.Read("f"); err != nil {
					b.Fatal(err)
				}
			}
			m := ecryptfs.DefaultModel()
			b.ReportMetric(m.Throughput(e, 2<<20, false)/1e6, "read_MBps")
			b.ReportMetric(m.Throughput(e, 2<<20, true)/1e6, "write_MBps")
		})
	}
}

// BenchmarkFig15Utilization generates the utilization timelines and reports
// each engine's average CPU consumption (paper: CPU 56%, AES-NI 24%, LAKE
// ~20%).
func BenchmarkFig15Utilization(b *testing.B) {
	m := ecryptfs.DefaultModel()
	for _, e := range []ecryptfs.Engine{ecryptfs.EngineCPU, ecryptfs.EngineAESNI, ecryptfs.EngineLAKE} {
		b.Run(e.String(), func(b *testing.B) {
			var pts []ecryptfs.UtilPoint
			for i := 0; i < b.N; i++ {
				pts = ecryptfs.UtilizationTrace(m, e, 2<<30, 2<<20, 18*time.Second)
			}
			var cpu float64
			n := 0
			for _, p := range pts {
				if p.KernelCPU == 0 && p.UserAPI == 0 && p.GPU == 0 {
					continue
				}
				cpu += float64(p.KernelCPU + p.UserAPI)
				n++
			}
			b.ReportMetric(cpu/float64(n), "cpu_util_pct")
		})
	}
}

// BenchmarkExperimentHarness exercises the cmd/lakebench dispatch path on
// the cheapest experiment to keep the harness itself covered.
func BenchmarkExperimentHarness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run("table2"); err != nil {
			b.Fatal(err)
		}
	}
}
