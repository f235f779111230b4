// Allocation gates for the ring transport's steady-state hot paths: the CI
// allocgate job runs `go test -run 'TestAllocs'` and any regression from 0
// allocs/op fails the build. The gated paths are the single remoted call
// (lakeLib stub -> wire marshal -> descriptor ring -> lakeD decode/execute ->
// completion ring -> response demux), the batcher's flush wire path
// (CuBatchedInferInto over a warmed scratch) and the one device kernel body
// (slab decode -> nn.ForwardSlab -> slab encode over pooled scratch). The
// fleet request path (router -> admission -> lakeShm slot -> queue -> flush
// -> scatter) is gated at its floor, which is not 0: the request object and
// its result.
package lake_test

import (
	"fmt"
	"testing"

	"lakego/internal/batcher"
	"lakego/internal/boundary"
	"lakego/internal/core"
	"lakego/internal/cuda"
	"lakego/internal/fleet"
	"lakego/internal/gpu"
	"lakego/internal/gpupool"
	"lakego/internal/healthplane"
	"lakego/internal/linnos"
	"lakego/internal/mllb"
	"lakego/internal/nn"
	"lakego/internal/offload"
	"lakego/internal/remoting"
)

// ringConfig is the default runtime charging the descriptor rings' own cost
// row instead of Netlink's.
func ringConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Channel = boundary.Ring
	return cfg
}

func newRingRuntime(t testing.TB) *core.Runtime {
	t.Helper()
	rt, err := core.New(ringConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// TestAllocsRingRemotedCall gates the headline budget: a steady-state
// remoted call over the ring transport performs zero heap allocations on
// either side of the boundary, whichever cost row the runtime charges.
func TestAllocsRingRemotedCall(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{
		{"ring-cost", ringConfig()},
		{"default-netlink-cost", core.DefaultConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := core.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			lib := rt.Lib()
			// Warm the pools: callState, frame capacity, daemon scratch — and
			// one full lap of the 4096-slot journal ring, whose per-slot
			// buffers grow on first use and are recycled in place ever after.
			for i := 0; i < 4100; i++ {
				if _, r := lib.CuDeviceGetCount(); r != cuda.Success {
					t.Fatal(r)
				}
			}
			n := testing.AllocsPerRun(1000, func() {
				if _, r := lib.CuDeviceGetCount(); r != cuda.Success {
					t.Fatal(r)
				}
			})
			if n != 0 {
				t.Fatalf("remoted call allocates %v objects/op, want 0", n)
			}
		})
	}
}

// TestAllocsRingRemotedCallWithHealthPlane re-runs the headline gate with
// the live health plane attached and actively tailing: the tailer chases
// the recorder ring with its own cursor, so an armed plane must not add a
// single allocation (or any other disturbance) to the Emit-side call path.
func TestAllocsRingRemotedCallWithHealthPlane(t *testing.T) {
	rt := newRingRuntime(t)
	plane := rt.NewHealthPlane(healthplane.Config{})
	lib := rt.Lib()
	if r := lib.CuInit(); r != cuda.Success {
		t.Fatal(r)
	}
	for i := 0; i < 4100; i++ { // one full journal lap, see above
		if _, r := lib.CuDeviceGetCount(); r != cuda.Success {
			t.Fatal(r)
		}
	}
	// Drain the backlog so the tail cursor sits mid-ring, the worst case
	// for the Emit/Tail interleave, then gate the call path.
	plane.Poll()
	n := testing.AllocsPerRun(1000, func() {
		if _, r := lib.CuDeviceGetCount(); r != cuda.Success {
			t.Fatal(r)
		}
	})
	if n != 0 {
		t.Fatalf("ring remoted call with health plane attached allocates %v objects/op, want 0", n)
	}
	if snap := plane.SLO(); len(snap.Stages) == 0 {
		t.Fatal("plane never ingested the tailed call events")
	}
}

// TestAllocsRingCallWithValues gates a stub that returns values and carries
// args (the memcpy accounting path), not just the arg-less device count.
func TestAllocsRingCallWithValues(t *testing.T) {
	rt := newRingRuntime(t)
	lib := rt.Lib()
	if r := lib.CuInit(); r != cuda.Success {
		t.Fatal(r)
	}
	ptr, r := lib.CuMemAlloc(256)
	if r != cuda.Success {
		t.Fatal(r)
	}
	src := make([]byte, 256)
	for i := 0; i < 4100; i++ { // one full journal lap, see above
		if r := lib.CuMemcpyHtoD(ptr, src); r != cuda.Success {
			t.Fatal(r)
		}
	}
	n := testing.AllocsPerRun(1000, func() {
		if r := lib.CuMemcpyHtoD(ptr, src); r != cuda.Success {
			t.Fatal(r)
		}
	})
	if n != 0 {
		t.Fatalf("ring CuMemcpyHtoD allocates %v objects/op, want 0", n)
	}
}

// inPlaceKernel is an inference-shaped kernel (args = [in, out, n]) whose
// body moves bytes without allocating, so the flush gate below measures only
// the wire path.
func inPlaceKernel(name string) *cuda.Kernel {
	return &cuda.Kernel{
		Name:  name,
		Flops: func(args []uint64) float64 { return float64(args[2]) },
		Body: func(dev *gpu.Device, args []uint64) error {
			inMem, err := dev.Bytes(gpu.DevPtr(args[0]))
			if err != nil {
				return err
			}
			outMem, err := dev.Bytes(gpu.DevPtr(args[1]))
			if err != nil {
				return err
			}
			copy(outMem, inMem[:int(args[2])*4])
			return nil
		},
	}
}

// TestAllocsRingBatchedFlushWire gates the batcher's flush wire path: a
// warmed CuBatchedInferInto — marshal into scratch, one ring round trip, one
// gathered launch, per-entry demux into scratch — is allocation-free.
func TestAllocsRingBatchedFlushWire(t *testing.T) {
	rt := newRingRuntime(t)
	lib := rt.Lib()
	rt.RegisterKernel(inPlaceKernel("identity"))
	if r := lib.CuInit(); r != cuda.Success {
		t.Fatal(r)
	}
	ctx, r := lib.CuCtxCreate("allocgate")
	if r != cuda.Success {
		t.Fatal(r)
	}
	mod, r := lib.CuModuleLoad("identity.cubin")
	if r != cuda.Success {
		t.Fatal(r)
	}
	fn, r := lib.CuModuleGetFunction(mod, "identity")
	if r != cuda.Success {
		t.Fatal(r)
	}
	const maxItems = 32
	devIn, r := lib.CuMemAlloc(4 * maxItems)
	if r != cuda.Success {
		t.Fatal(r)
	}
	devOut, r := lib.CuMemAlloc(4 * maxItems)
	if r != cuda.Success {
		t.Fatal(r)
	}
	spec := remoting.BatchSpec{Ctx: ctx, Fn: fn, DevIn: devIn, DevOut: devOut, InWidth: 1, OutWidth: 1}

	region := rt.Region()
	entries := make([]remoting.BatchEntry, 4)
	for i := range entries {
		const count = 4
		in, err := region.Alloc(4 * count)
		if err != nil {
			t.Fatal(err)
		}
		out, err := region.Alloc(4 * count)
		if err != nil {
			t.Fatal(err)
		}
		entries[i] = remoting.BatchEntry{
			Seq:   uint64(100 + i),
			InOff: uint64(in.Offset()), OutOff: uint64(out.Offset()),
			Count: count,
		}
	}
	var sc remoting.BatchScratch
	flush := func() {
		res, r := lib.CuBatchedInferInto("identity", spec, entries, 0, &sc)
		if r != cuda.Success {
			t.Fatal(r)
		}
		for i, pr := range res {
			if pr != cuda.Success {
				t.Fatalf("entry %d: %v", i, pr)
			}
		}
	}
	for i := 0; i < 4100; i++ { // one full journal lap, see above
		flush()
	}
	if n := testing.AllocsPerRun(1000, flush); n != 0 {
		t.Fatalf("ring batched flush wire path allocates %v objects/op, want 0", n)
	}
}

// TestAllocsSlotServedKernelLaunch gates the kernel body every workload
// launches: one bulk_linnos-sized launch (1024 LinnOS items) of a
// Slot-served ModelConfig.Kernel resolves its network, decodes the input
// slab, runs the forward passes and encodes the logits without allocating.
func TestAllocsSlotServedKernelLaunch(t *testing.T) {
	rt := newRingRuntime(t)
	lib := rt.Lib()
	net := nn.New(3, linnos.Base.Sizes()...)
	mc := offload.NewSlot(net).Serve(linnos.Model(linnos.Base, net))
	rt.RegisterKernel(mc.Kernel())
	if r := lib.CuInit(); r != cuda.Success {
		t.Fatal(r)
	}
	ctx, r := lib.CuCtxCreate("allocgate")
	if r != cuda.Success {
		t.Fatal(r)
	}
	mod, r := lib.CuModuleLoad(mc.Name + ".cubin")
	if r != cuda.Success {
		t.Fatal(r)
	}
	fn, r := lib.CuModuleGetFunction(mod, mc.Name)
	if r != cuda.Success {
		t.Fatal(r)
	}
	devIn, r := lib.CuMemAlloc(int64(4 * mc.InputWidth * mc.MaxBatch))
	if r != cuda.Success {
		t.Fatal(r)
	}
	devOut, r := lib.CuMemAlloc(int64(4 * mc.OutputWidth * mc.MaxBatch))
	if r != cuda.Success {
		t.Fatal(r)
	}
	args := []uint64{uint64(devIn), uint64(devOut), 1}
	launch := func() {
		if r := lib.CuLaunchKernel(ctx, fn, args); r != cuda.Success {
			t.Fatal(r)
		}
	}
	for i := 0; i < 4100; i++ { // one full journal lap on one-item launches, see above
		launch()
	}
	args[2] = uint64(mc.MaxBatch)
	launch() // grow the pooled slabs to the full batch
	if n := testing.AllocsPerRun(20, launch); n != 0 {
		t.Fatalf("1024-item launch of a Slot-served kernel allocates %v objects/op, want 0", n)
	}
}

// fleetWaveTenants is the benchmark's fleet_mllb shape: 64 tenants on two
// shards submit one request each, then collect — two full 32-item flushes a
// wave and no deadline flush.
const fleetWaveTenants = 64

// newFleetWave boots that fleet over a Slot-served MLLB model (the batch
// forward allocates nothing, so what a wave allocates is the request path's
// own) and returns one wave as a func.
func newFleetWave(tb testing.TB) func() {
	tb.Helper()
	rcfg := ringConfig()
	rcfg.NumShards = 2
	rcfg.RouterPolicy = gpupool.RoundRobin
	fl, err := fleet.New(fleet.Config{
		Runtime: rcfg,
		Batcher: batcher.Config{MaxBatch: fleetWaveTenants / 2, ClientDepth: 8}, // Linger 0: one driver goroutine
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(fl.Close)
	net := nn.New(7, mllb.Sizes()...)
	mc := offload.NewSlot(net).Serve(batcher.ModelConfig{
		Name: "mllb", InputWidth: net.InputSize(), OutputWidth: net.OutputSize(), MaxBatch: 1024,
	})
	if err := fl.RegisterModel(mc); err != nil {
		tb.Fatal(err)
	}
	x := make([]float32, net.InputSize())
	for i := range x {
		x[i] = float32(i%7) / 7
	}
	items, want := [][]float32{x}, net.Forward(x)
	var clients [fleetWaveTenants]*fleet.Client
	for c := range clients {
		clients[c] = fl.Client(fmt.Sprintf("tenant%02d", c))
	}
	var pend [fleetWaveTenants]*fleet.Pending
	return func() {
		for c, cl := range clients {
			p, err := cl.Submit("mllb", items)
			if err != nil {
				tb.Fatal(err)
			}
			pend[c] = p
		}
		for _, p := range pend {
			out, err := p.Wait()
			if err != nil {
				tb.Fatal(err)
			}
			if len(out) != 1 || out[0][0] != want[0] || out[0][1] != want[1] {
				tb.Fatalf("delivered %v, want [%v]", out, want)
			}
		}
	}
}

// TestAllocsFleetRequest gates the fleet request path at its floor: one
// fleet.Pending (which holds the batcher's by value) and one result slice
// per request, plus one batch slice and one completion channel per 32-item
// flush — 2.06 objects a request, 2.09 while each shard's journal is on its
// first lap (a slot buffer per flush; a full lap is 4096 waves). No
// per-request channel, staging slice, pointer Buffer, second Pending or per-row
// slice may come back.
func TestAllocsFleetRequest(t *testing.T) {
	wave := newFleetWave(t)
	for i := 0; i < 200; i++ { // wire scratch, queues and pools
		wave()
	}
	perReq := testing.AllocsPerRun(200, wave) / fleetWaveTenants
	if perReq > 2.2 {
		t.Fatalf("fleet request allocates %.3f objects, want <= 2.2", perReq)
	}
}
