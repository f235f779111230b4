// Substrate micro-benchmarks: real wall-clock performance of the hot code
// paths (allocator, lock-free capture, wire protocol, inference math,
// end-to-end remoted calls), for profiling while working on one of them.
// They measure the library itself rather than the simulated hardware; wall
// claims are made against `go run ./benchmark` pairs, and the zero-alloc
// ones are gated by the TestAllocs* tests.
package lake_test

import (
	"fmt"
	"testing"

	"lakego/internal/core"
	"lakego/internal/features"
	"lakego/internal/flightrec"
	"lakego/internal/linnos"
	"lakego/internal/mllb"
	"lakego/internal/nn"
	"lakego/internal/remoting"
	"lakego/internal/vtime"
)

// BenchmarkPerfLockfreeCapture is capture_feature_incr from every P at once:
// the registry's lock-free capture path (§5.3).
func BenchmarkPerfLockfreeCapture(b *testing.B) {
	reg, err := features.NewStore().CreateRegistry("bench", "sys", features.Schema{
		{Key: "pend_ios", Size: 8, Entries: 1},
	}, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			reg.CaptureFeatureIncr("pend_ios", 1)
		}
	})
}

func BenchmarkPerfRegistryCommit(b *testing.B) {
	s := features.NewStore()
	reg, err := s.CreateRegistry("bench", "sys", features.Schema{
		{Key: "pend_ios", Size: 8, Entries: 1},
		{Key: "io_latency", Size: 8, Entries: 4},
	}, 1024)
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.BeginCapture(0)
		reg.CaptureFeatureIncr("pend_ios", 1)
		reg.CaptureFeature("io_latency", val)
		reg.CommitCapture(0)
	}
}

func BenchmarkPerfMarshalCommand(b *testing.B) {
	benchOp(b, newMarshalCommand(b))
}

// newMarshalCommand returns one encode and decode of a named six-argument
// launch command over reused buffers; TestAllocsSubstrate/MarshalCommand gates
// it at 0 allocs.
func newMarshalCommand(tb testing.TB) func() {
	cmd := &remoting.Command{
		API:  remoting.APICuLaunchKernel,
		Seq:  1,
		Args: []uint64{1, 2, 3, 4, 5, 6},
		Name: "vecadd",
	}
	var frame []byte
	var out remoting.Command
	names := map[string]string{}
	return func() {
		var err error
		if frame, err = remoting.AppendCommand(frame[:0], cmd); err != nil {
			tb.Fatal(err)
		}
		if err := remoting.DecodeCommandInto(&out, names, frame); err != nil {
			tb.Fatal(err)
		}
	}
}

// benchOp times op per iteration, with allocations reported.
func benchOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkPerfNNForward(b *testing.B) {
	net := nn.New(1, linnos.Base.Sizes()...)
	x := make([]float32, net.InputSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
	}
}

// BenchmarkPerfNNForwardSlab is one bulk_linnos launch's worth of forward
// passes: 1024 LinnOS items through the slab path, nothing allocated.
func BenchmarkPerfNNForwardSlab(b *testing.B) {
	const items = 1024
	net := nn.New(1, linnos.Base.Sizes()...)
	in := make([]float32, items*net.InputSize())
	out := make([]float32, items*net.OutputSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.ForwardSlab(in, items, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfNNForwardSlabSmall prices small slabs on both models the
// benchmark workloads serve. Both end in a 2-output layer, so from items=4
// up each group of four rows runs it once with the rows as SIMD lanes, and
// only the items mod 4 rows left run it alone: ns/row drops from items=4
// on, most at multiples of four. items=1 is the per-request path and
// items=32 an MLLB flush.
func BenchmarkPerfNNForwardSlabSmall(b *testing.B) {
	for _, model := range []struct {
		name  string
		sizes []int
	}{{"linnos", linnos.Base.Sizes()}, {"mllb", mllb.Sizes()}} {
		net := nn.New(1, model.sizes...)
		for _, items := range []int{1, 2, 3, 4, 32} {
			b.Run(fmt.Sprintf("%s/items=%d", model.name, items), func(b *testing.B) {
				in := make([]float32, items*net.InputSize())
				out := make([]float32, items*net.OutputSize())
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := net.ForwardSlab(in, items, out); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*items), "ns/row")
			})
		}
	}
}

// remotedCallVNS makes n CuDeviceGetCount calls on a runtime booted from
// cfg, timed by a benchmark from the first call, and returns the modeled
// virtual ns per call: the figure-level metric the boundary cost model
// charges, what the >= 2x ring acceptance gates on.
func remotedCallVNS(tb testing.TB, cfg core.Config, n int) float64 {
	rt, err := core.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	defer rt.Close()
	lib := rt.Lib()
	if b, ok := tb.(*testing.B); ok {
		b.ReportAllocs()
		b.ResetTimer()
	}
	start := rt.Clock().Now()
	for i := 0; i < n; i++ {
		if _, r := lib.CuDeviceGetCount(); r != 0 {
			tb.Fatal(r)
		}
	}
	return float64(rt.Clock().Now()-start) / float64(n)
}

func BenchmarkPerfRemotedCall(b *testing.B) {
	b.ReportMetric(remotedCallVNS(b, core.DefaultConfig(), b.N), "vns_per_call")
}

// BenchmarkPerfRemotedCallRing is BenchmarkPerfRemotedCall charged the
// descriptor rings' own cost row instead of Netlink's: same stub, same
// daemon, same wire. The acceptance bar (>= 2x over the Netlink row,
// 0 allocs/op) is pinned by TestRingCallSpeedup and the TestAllocs gates.
func BenchmarkPerfRemotedCallRing(b *testing.B) {
	b.ReportMetric(remotedCallVNS(b, ringConfig(), b.N), "vns_per_call")
}

// BenchmarkPerfTailDrain measures the health plane's ingestion substrate:
// emit a batch of events into the flight-recorder ring, then drain them
// non-destructively with TailInto over a reused buffer. The reported time
// covers one emit + one tailed read per op; TestAllocsSubstrate/TailDrain
// gates the 0 allocs/op.
func BenchmarkPerfTailDrain(b *testing.B) {
	drain := newTailDrain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += tailDrainBatch {
		drain()
	}
}

const tailDrainBatch = 64

// newTailDrain returns one round of the health plane's ingestion: a batch
// of events emitted into a flight-recorder ring, then tailed out of it into
// a reused buffer.
func newTailDrain() func() {
	rec := flightrec.New(vtime.New(), 1<<12)
	buf := make([]flightrec.Event, tailDrainBatch)
	var cur flightrec.TailCursor
	var seq uint64
	return func() {
		for j := 0; j < tailDrainBatch; j++ {
			seq++
			rec.Emit(flightrec.DomainKernel, flightrec.EvCallEnd, seq, uint64(j), 0, 7, 0, 1500)
		}
		for {
			n, next, _ := rec.TailInto(cur, buf)
			cur = next
			if n < len(buf) {
				break
			}
		}
	}
}

// BenchmarkPerfFleetRequest is one 64-tenant wave through a 2-shard fleet
// per op: router, admission, lakeShm slot, queue, two full flushes, scatter.
func BenchmarkPerfFleetRequest(b *testing.B) {
	wave, _ := newFleetWave(b, fleetWaveTenants)
	for i := 0; i < 200; i++ {
		wave()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wave()
	}
}
