// Substrate micro-benchmarks: real wall-clock performance of the hot code
// paths (allocator, lock-free capture, wire protocol, inference math,
// end-to-end remoted calls). Unlike the figure benchmarks, these measure
// the library itself rather than the simulated hardware.
package lake_test

import (
	"testing"

	"lakego/internal/bestfit"
	"lakego/internal/core"
	"lakego/internal/features"
	"lakego/internal/flightrec"
	"lakego/internal/linnos"
	"lakego/internal/lockfree"
	"lakego/internal/nn"
	"lakego/internal/remoting"
	"lakego/internal/ringbuf"
	"lakego/internal/vtime"
)

func BenchmarkPerfBestFitAllocFree(b *testing.B) {
	a, err := bestfit.New(64<<20, 64)
	if err != nil {
		b.Fatal(err)
	}
	offs := make([]int64, 0, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off, err := a.Alloc(int64(1024 + i%4096))
		if err != nil {
			// Region full: drain and continue.
			for _, o := range offs {
				a.Free(o)
			}
			offs = offs[:0]
			continue
		}
		offs = append(offs, off)
		if len(offs) == 128 {
			for _, o := range offs {
				a.Free(o)
			}
			offs = offs[:0]
		}
	}
}

func BenchmarkPerfLockfreeCapture(b *testing.B) {
	m := lockfree.NewMap(16)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.Add("pend_ios", 1)
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
	cmd := &remoting.Command{
		API:  remoting.APICuLaunchKernel,
		Seq:  1,
		Args: []uint64{1, 2, 3, 4, 5, 6},
		Name: "vecadd",
	}
	var frame []byte
	var out remoting.Command
	names := map[string]string{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if frame, err = remoting.AppendCommand(frame[:0], cmd); err != nil {
			b.Fatal(err)
		}
		if err := remoting.DecodeCommandInto(&out, names, frame); err != nil {
			b.Fatal(err)
		}
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

func BenchmarkPerfRingPush(b *testing.B) {
	r := ringbuf.New[int](1024)
	for i := 0; i < b.N; i++ {
		r.Push(i)
	}
}

func benchRemotedCall(b *testing.B, cfg core.Config) {
	rt, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	lib := rt.Lib()
	b.ReportAllocs()
	b.ResetTimer()
	start := rt.Clock().Now()
	for i := 0; i < b.N; i++ {
		if _, r := lib.CuDeviceGetCount(); r != 0 {
			b.Fatal(r)
		}
	}
	// Modeled per-call latency (virtual ns): the figure-level metric the
	// boundary cost model charges, what the >= 2x ring acceptance gates on.
	b.ReportMetric(float64(rt.Clock().Now()-start)/float64(b.N), "vns_per_call")
}

func BenchmarkPerfRemotedCall(b *testing.B) {
	benchRemotedCall(b, core.DefaultConfig())
}

// BenchmarkPerfRemotedCallRing is BenchmarkPerfRemotedCall charged the
// descriptor rings' own cost row instead of Netlink's: same stub, same
// daemon, same wire. The acceptance bar (>= 2x over the Netlink row,
// 0 allocs/op) is pinned by TestRingCallSpeedup and the TestAllocs gates.
func BenchmarkPerfRemotedCallRing(b *testing.B) {
	benchRemotedCall(b, ringConfig())
}

// BenchmarkPerfTailDrain measures the health plane's ingestion substrate:
// emit a batch of events into the flight-recorder ring, then drain them
// non-destructively with TailInto over a reused buffer. The reported time
// covers one emit + one tailed read per op; 0 allocs/op is the bar the
// TestTailRaceStorm/alloc gates pin.
func BenchmarkPerfTailDrain(b *testing.B) {
	rec := flightrec.New(vtime.New(), 1<<12)
	const batch = 64
	buf := make([]flightrec.Event, batch)
	var cur flightrec.TailCursor
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		for j := 0; j < batch; j++ {
			rec.Emit(flightrec.DomainKernel, flightrec.EvChannel,
				uint64(i+j), uint64(j), 0, 1500, 96, 0)
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

// BenchmarkPerfRingDescriptor measures the raw descriptor ring: one
// uncontended Push/Pop/Release cycle.
func BenchmarkPerfRingDescriptor(b *testing.B) {
	r := ringbuf.NewMPSC(64)
	d := ringbuf.Desc{Seq: 1, Slot: 3, Len: 512}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !r.Push(d) {
			b.Fatal("ring full")
		}
		_, ticket, ok := r.Pop()
		if !ok {
			b.Fatal("ring empty")
		}
		r.Release(ticket)
	}
}

// BenchmarkPerfDoorbell measures the no-waiter Ring fast path — the cost a
// producer pays per send when the consumer is already running.
func BenchmarkPerfDoorbell(b *testing.B) {
	bell := lockfree.NewDoorbell()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bell.Ring()
	}
}

// BenchmarkPerfFleetRequest is one 64-tenant wave through a 2-shard fleet
// per op: router, admission, lakeShm slot, queue, two full flushes, scatter.
func BenchmarkPerfFleetRequest(b *testing.B) {
	wave := newFleetWave(b)
	for i := 0; i < 200; i++ {
		wave()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wave()
	}
}
