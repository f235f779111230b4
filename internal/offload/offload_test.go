package offload

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"lakego/internal/batcher"
	"lakego/internal/core"
	"lakego/internal/cuda"
	"lakego/internal/gpu"
	"lakego/internal/nn"
	"lakego/internal/policy"
	"lakego/internal/vtime"
)

func boot(t *testing.T) *core.Runtime {
	t.Helper()
	rt, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func doubler(x []float32) []float32 {
	out := make([]float32, len(x))
	for i, v := range x {
		out[i] = 2 * v
	}
	return out
}

func cfg(name string) batcher.ModelConfig {
	return batcher.ModelConfig{
		Name: name, InputWidth: 4, OutputWidth: 4, MaxBatch: 64,
		CPUFixed: 2 * time.Microsecond, CPUPerItem: 1200 * time.Nanosecond,
		FlopsPerItem: 1000, Forward: doubler,
	}
}

func TestConfigValidation(t *testing.T) {
	rt := boot(t)
	bad := []batcher.ModelConfig{
		{},
		{Name: "x", InputWidth: 0, OutputWidth: 1, MaxBatch: 1},
		{Name: "x", InputWidth: 1, OutputWidth: 0, MaxBatch: 1},
		{Name: "x", InputWidth: 1, OutputWidth: 1, MaxBatch: 0},
	}
	for i, c := range bad {
		if _, err := NewRunner(rt, c); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// Every route a descriptor can take must return the same outputs: there is
// one kernel and one forward resolution behind all of them.
func TestCPUAndLAKEProduceSameOutputs(t *testing.T) {
	net := nn.New(5, 4, 16, 4)
	timing := cfg("timing")
	timing.Forward = nil
	for _, tc := range []struct {
		name string
		mc   batcher.ModelConfig
		want func(x []float32) []float32
	}{
		{"forward", cfg("dbl"), doubler},
		{"slot", NewSlot(net).Serve(cfg("net")), net.Forward},
		{"timing-only", timing, func([]float32) []float32 { return make([]float32, 4) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := boot(t)
			r, err := NewRunner(rt, tc.mc)
			if err != nil {
				t.Fatal(err)
			}
			b := rt.NewBatcher(batcher.Config{Linger: 0})
			if err := r.EnableBatching(b); err != nil {
				t.Fatal(err)
			}
			batch := [][]float32{{1, 2, 3, 4}, {5, 6, 7, 8}, {-1, 0.5, 0, 9}}
			want := make([][]float32, len(batch))
			for i, x := range batch {
				want[i] = tc.want(x)
			}
			check := func(route string, got [][]float32, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", route, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s = %v, want %v", route, got, want)
				}
			}

			cpuOut, cpuT := r.RunCPU(batch)
			check("RunCPU", cpuOut, nil)
			if want := 2*time.Microsecond + 3*1200*time.Nanosecond; cpuT != want {
				t.Fatalf("cpu time = %v, want %v", cpuT, want)
			}
			syncOut, syncT, err := r.RunLAKE(batch, true)
			check("RunLAKE(sync)", syncOut, err)
			asyncOut, asyncT, err := r.RunLAKE(batch, false)
			check("RunLAKE(async)", asyncOut, err)
			if asyncT <= 0 || syncT < asyncT {
				t.Fatalf("lake times: sync %v, async %v", syncT, asyncT)
			}
			autoOut, dec, _, err := r.RunAuto(batch, nil)
			check("RunAuto(nil)", autoOut, err)
			if dec != policy.UseGPU {
				t.Fatalf("RunAuto(nil) ran on %v", dec)
			}
			batched, err := b.Client("c").Infer(r.BatchModelName(), batch)
			check("EnableBatching", batched, err)

			rt.Close() // the next remoted call latches lakeD dead
			deadOut, dec, _, err := r.RunAuto(batch, nil)
			check("RunAuto(daemon dead)", deadOut, err)
			if dec != policy.UseCPU {
				t.Fatalf("dead-daemon RunAuto ran on %v", dec)
			}
		})
	}
}

// A wrong-width row must fail RunAuto with RunLAKE's error whichever route
// the policy picks; the CPU route used to panic inside the forward pass.
func TestRunAutoRejectsWrongWidthOnEveryRoute(t *testing.T) {
	rt := boot(t)
	mc := cfg("narrow")
	mc.Forward = func(x []float32) []float32 { return []float32{x[0], x[1], x[2], x[3]} }
	r, err := NewRunner(rt, mc)
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]float32{{1, 2, 3, 4}, {1}}
	_, _, lakeErr := r.RunLAKE(bad, true)
	if lakeErr == nil {
		t.Fatal("RunLAKE accepted a narrow row")
	}
	for name, pol := range map[string]policy.Func{
		"gpu": nil,
		"cpu": func(int) policy.Decision { return policy.UseCPU },
	} {
		_, _, _, err := r.RunAuto(bad, pol)
		if err == nil || err.Error() != lakeErr.Error() {
			t.Fatalf("%s route: err = %v, want %v", name, err, lakeErr)
		}
	}
	rt.Close()
	if _, _, _, err := r.RunAuto(bad, nil); err == nil || err.Error() != lakeErr.Error() {
		t.Fatalf("dead-daemon fallback: err = %v, want %v", err, lakeErr)
	}
}

// The slot admits only the serving network's exact layer geometry and
// every route picks a swapped network up on its next batch.
func TestSlotSwapNet(t *testing.T) {
	rt := boot(t)
	a, b := nn.New(1, 4, 16, 4), nn.New(2, 4, 16, 4)
	slot := NewSlot(a)
	r, err := NewRunner(rt, slot.Serve(cfg("swap")))
	if err != nil {
		t.Fatal(err)
	}
	if r.Config().FlopsPerItem != a.Flops() {
		t.Fatalf("FlopsPerItem = %v, want the net's %v", r.Config().FlopsPerItem, a.Flops())
	}
	for _, odd := range []*nn.Network{nn.New(3, 4, 8, 4), nn.New(3, 4, 16, 16, 4), nn.New(3, 4, 16, 2)} {
		err := slot.SwapNet(odd)
		if err == nil || !strings.Contains(err.Error(), "serving [4 16 4]") {
			t.Fatalf("swap to sizes %v: err = %v", odd.Sizes(), err)
		}
	}
	if slot.Net() != a {
		t.Fatal("a rejected swap replaced the serving net")
	}
	if err := slot.SwapNet(b); err != nil {
		t.Fatal(err)
	}
	x := []float32{1, 2, 3, 4}
	cpu, _ := r.RunCPU([][]float32{x})
	lake, _, err := r.RunLAKE([][]float32{x}, true)
	if err != nil {
		t.Fatal(err)
	}
	if want := b.Forward(x); !reflect.DeepEqual(cpu[0], want) || !reflect.DeepEqual(lake[0], want) {
		t.Fatalf("after swap: cpu %v lake %v, want %v", cpu[0], lake[0], want)
	}
}

func TestTimingOnlyKernel(t *testing.T) {
	rt := boot(t)
	c := cfg("timing")
	c.Forward = nil
	r, err := NewRunner(rt, c)
	if err != nil {
		t.Fatal(err)
	}
	out, d, err := r.RunLAKE([][]float32{{1, 2, 3, 4}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("no time charged")
	}
	for _, v := range out[0] {
		if v != 0 {
			t.Fatalf("timing-only kernel produced %v", out[0])
		}
	}
	cpuOut, _ := r.RunCPU([][]float32{{1, 2, 3, 4}})
	if len(cpuOut[0]) != 4 {
		t.Fatal("cpu timing-only output wrong width")
	}
}

func TestRunLAKEValidation(t *testing.T) {
	rt := boot(t)
	r, _ := NewRunner(rt, cfg("val"))
	if _, _, err := r.RunLAKE(make([][]float32, 65), true); err == nil {
		t.Fatal("oversized batch accepted")
	}
	if _, _, err := r.RunLAKE([][]float32{{1}}, true); err == nil {
		t.Fatal("narrow item accepted")
	}
	if out, d, err := r.RunLAKE(nil, true); err != nil || out != nil || d != 0 {
		t.Fatal("empty batch should be a no-op")
	}
}

func TestSweepAndCrossover(t *testing.T) {
	rt := boot(t)
	r, _ := NewRunner(rt, cfg("sweep"))
	pts, err := Sweep(r, []int{1, 8, 64}, func(i int) []float32 {
		return []float32{float32(i), 0, 0, 0}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// CPU grows linearly, LAKE is ~flat: with 1µs/item vs ~70µs fixed,
	// crossover must be 64.
	if got := Crossover(pts); got != 64 {
		for _, p := range pts {
			t.Logf("batch %d: cpu=%v lake=%v sync=%v", p.Batch, p.CPU, p.LAKE, p.LAKESync)
		}
		t.Fatalf("crossover = %d, want 64", got)
	}
	// Sync always costs at least async.
	for _, p := range pts {
		if p.LAKESync < p.LAKE {
			t.Fatalf("sync %v < async %v at batch %d", p.LAKESync, p.LAKE, p.Batch)
		}
	}
	if _, err := Sweep(r, []int{128}, func(int) []float32 { return nil }); err == nil {
		t.Fatal("sweep beyond MaxBatch accepted")
	}
}

func TestCrossoverNever(t *testing.T) {
	pts := []SweepPoint{{Batch: 1, CPU: 1, LAKE: 2}, {Batch: 2, CPU: 2, LAKE: 3}}
	if got := Crossover(pts); got != 0 {
		t.Fatalf("Crossover = %d, want 0", got)
	}
}

func TestStandardBatches(t *testing.T) {
	b := StandardBatches()
	if len(b) != 11 || b[0] != 1 || b[10] != 1024 {
		t.Fatalf("StandardBatches = %v", b)
	}
}

func TestRunnerConfigAccessorAndBadForward(t *testing.T) {
	rt := boot(t)
	c := cfg("badfwd")
	c.Forward = func(x []float32) []float32 { return []float32{1} } // wrong width
	r, err := NewRunner(rt, c)
	if err != nil {
		t.Fatal(err)
	}
	if r.Config().Name != "badfwd" {
		t.Fatal("Config accessor wrong")
	}
	// Wrong-width forward output surfaces as a launch failure.
	if _, _, err := r.RunLAKE([][]float32{{1, 2, 3, 4}}, true); err == nil {
		t.Fatal("wrong-width forward accepted on the GPU path")
	}
}

func TestNewRunnerDuplicateKernelNameOK(t *testing.T) {
	// Registering twice overwrites in the flat namespace; NewRunner must
	// still wire up cleanly.
	rt := boot(t)
	if _, err := NewRunner(rt, cfg("dup")); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(rt, cfg("dup")); err != nil {
		t.Fatal(err)
	}
}

// gpu.Device.Execute runs kernel bodies outside its lock, so launches of one
// Slot-served kernel overlap — sharing the kernel's pooled slabs and nn's
// pooled activations — while the lifecycle flips the slot. Every launch must
// come back whole: all of its items carry the bits of one version.
func TestSlotServedKernelConcurrentSwap(t *testing.T) {
	const (
		inW, outW = 9, 3
		items     = 37 // not a multiple of the kernel's block
		workers   = 4
		launches  = 150
	)
	nets := [2]*nn.Network{nn.New(1, inW, 32, outW), nn.New(2, inW, 32, outW)}
	slot := NewSlot(nets[0])
	mc := slot.Serve(batcher.ModelConfig{Name: "swapstorm", InputWidth: inW, OutputWidth: outW, MaxBatch: 64})

	api := cuda.NewAPI(gpu.New(gpu.DefaultSpec(), vtime.New()))
	api.Init()
	api.RegisterKernel(mc.Kernel())
	mod, r := api.ModuleLoad(mc.Name + ".cubin")
	if r != cuda.Success {
		t.Fatal(r)
	}
	fn, r := api.ModuleGetFunction(mod, mc.Name)
	if r != cuda.Success {
		t.Fatal(r)
	}

	in := make([]float32, items*inW)
	for i := range in {
		in[i] = float32(i%23)/7 - 1
	}
	var want [2][]float32
	for v, net := range nets {
		want[v] = make([]float32, items*outW)
		if err := net.ForwardSlab(in, items, want[v]); err != nil {
			t.Fatal(err)
		}
	}
	staged := make([]byte, 4*len(in))
	if err := cuda.PutFloat32s(staged, in); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var swapper, wg sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := slot.SwapNet(nets[i&1]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok := func(r cuda.Result) bool {
				if r != cuda.Success {
					t.Error(r)
				}
				return r == cuda.Success
			}
			ctx, r := api.CtxCreate("worker")
			devIn, rIn := api.MemAlloc(int64(len(staged)))
			devOut, rOut := api.MemAlloc(4 * items * outW)
			if !ok(r) || !ok(rIn) || !ok(rOut) || !ok(api.MemcpyHtoD(devIn, staged)) {
				return
			}
			raw := make([]byte, 4*items*outW)
			got := make([]float32, items*outW)
			for l := 0; l < launches; l++ {
				if !ok(api.LaunchKernel(ctx, fn, []uint64{uint64(devIn), uint64(devOut), items})) ||
					!ok(api.MemcpyDtoH(raw, devOut)) {
					return
				}
				if err := cuda.ReadFloat32s(got, raw); err != nil {
					t.Error(err)
					return
				}
				version := 0
				if math.Float32bits(got[0]) != math.Float32bits(want[0][0]) {
					version = 1
				}
				for j := range got {
					if math.Float32bits(got[j]) != math.Float32bits(want[version][j]) {
						t.Errorf("launch %d: logit %d = %v, version %d computes %v: mixed or torn batch",
							l, j, got[j], version, want[version][j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	swapper.Wait()
}
