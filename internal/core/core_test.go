package core

import (
	"testing"
	"time"

	"lakego/internal/cuda"
	"lakego/internal/features"
	"lakego/internal/policy"
	"lakego/internal/shm"
)

func boot(t *testing.T) *Runtime {
	t.Helper()
	rt, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func TestNewBootsAndInits(t *testing.T) {
	rt := boot(t)
	// CuInit already ran during boot; device queries succeed immediately.
	n, r := rt.Lib().CuDeviceGetCount()
	if r != cuda.Success || n != 1 {
		t.Fatalf("CuDeviceGetCount = %d, %v", n, r)
	}
	if rt.Region().Size() != shm.DefaultRegionSize {
		t.Fatalf("region = %d bytes", rt.Region().Size())
	}
}

func TestNewZeroConfigGetsDefaults(t *testing.T) {
	rt, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.Device().Spec().MemoryBytes == 0 {
		t.Fatal("GPU spec defaults not applied")
	}
}

func TestEndToEndVecAddThroughRuntime(t *testing.T) {
	rt := boot(t)
	rt.RegisterKernel(cuda.VecAddKernel())
	lib := rt.Lib()
	ctx, _ := lib.CuCtxCreate("app")
	mod, _ := lib.CuModuleLoad("m")
	fn, r := lib.CuModuleGetFunction(mod, "vecadd")
	if r != cuda.Success {
		t.Fatal(r)
	}
	const n = 16
	buf, _ := rt.Region().Alloc(4 * n)
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = 2
	}
	cuda.PutFloat32s(buf.Bytes(), vals)
	ap, _ := lib.CuMemAlloc(4 * n)
	cp, _ := lib.CuMemAlloc(4 * n)
	lib.CuMemcpyHtoDShm(ap, buf, 4*n)
	if r := lib.CuLaunchKernel(ctx, fn, []uint64{uint64(ap), uint64(ap), uint64(cp), n}); r != cuda.Success {
		t.Fatal(r)
	}
	out, _ := rt.Region().Alloc(4 * n)
	lib.CuMemcpyDtoHShm(out, cp, 4*n)
	got, _ := cuda.Float32s(out.Bytes(), n)
	for i := range got {
		if got[i] != 4 {
			t.Fatalf("got[%d] = %v, want 4", i, got[i])
		}
	}
	st := rt.Stats()
	if st.RemotedCalls < 6 || st.KernelLaunches != 1 || st.VirtualTime == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAdaptivePolicyUsesRemotedNVML(t *testing.T) {
	rt := boot(t)
	rt.Clock().Advance(time.Second)
	pol := rt.NewAdaptivePolicy(policy.AdaptiveConfig{UtilThreshold: 40, BatchThreshold: 8})
	// Idle device, large batch: GPU.
	if got := pol.Decide(64); got != policy.UseGPU {
		t.Fatalf("idle decide = %v, want GPU", got)
	}
	// Saturate the device, advance past the rate limit, decide again: CPU.
	rt.Device().Execute("hog", 100*time.Millisecond, nil)
	rt.Clock().Advance(10 * time.Millisecond)
	for i := 0; i < 3; i++ {
		rt.Clock().Advance(6 * time.Millisecond)
		pol.Decide(64)
	}
	if got := pol.Decide(64); got != policy.UseCPU {
		t.Fatalf("contended decide = %v, want CPU", got)
	}
}

func TestInstallVMPolicy(t *testing.T) {
	rt := boot(t)
	rt.Clock().Advance(time.Second)
	vp, err := rt.InstallVMPolicy(policy.Compile(policy.AdaptiveConfig{UtilThreshold: 40, BatchThreshold: 8}))
	if err != nil {
		t.Fatal(err)
	}
	if got := vp.Decide(64); got != policy.UseGPU {
		t.Fatalf("idle decide = %v, want GPU", got)
	}
	if got := vp.Decide(2); got != policy.UseCPU {
		t.Fatalf("small batch = %v, want CPU", got)
	}
	// Broken program is rejected by the verifier.
	if _, err := rt.InstallVMPolicy(policy.Program{{Op: policy.OpJmp, Off: -1}, {Op: policy.OpExit}}); err == nil {
		t.Fatal("verifier accepted broken program")
	}
}

func TestFeatureRegistryIntegration(t *testing.T) {
	rt := boot(t)
	reg, err := features.NewStore().CreateRegistry("sda1", "bio", features.Schema{
		{Key: "pend_ios", Size: 8, Entries: 1},
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	reg.BeginCapture(rt.Clock().Now())
	reg.CaptureFeatureIncr("pend_ios", 2)
	reg.CommitCapture(rt.Clock().Now())
	if got := reg.Len(); got != 1 {
		t.Fatalf("registry len = %d", got)
	}
}

func TestCloseStopsRemoting(t *testing.T) {
	rt := boot(t)
	rt.Close()
	if _, r := rt.Lib().CuMemAlloc(64); r == cuda.Success {
		t.Fatal("remoted call succeeded after Close")
	}
}

func TestDaemonAccessorAndHighLevelViaRuntime(t *testing.T) {
	rt := boot(t)
	rt.Daemon().RegisterHighLevel("echo", func(api *cuda.API, region *shm.Region, args []uint64, blob []byte) ([]uint64, []byte, cuda.Result) {
		return args, blob, cuda.Success
	})
	vals, blob, r := rt.Lib().CallHighLevel("echo", []uint64{5}, []byte{9})
	if r != cuda.Success || vals[0] != 5 || blob[0] != 9 {
		t.Fatalf("echo = %v %v %v", vals, blob, r)
	}
}

func TestAdaptivePolicyTreatsQueryFailureAsContended(t *testing.T) {
	rt := boot(t)
	rt.Close() // kill the transport: NVML queries now fail
	pol := rt.NewAdaptivePolicy(policy.AdaptiveConfig{UtilThreshold: 40, BatchThreshold: 1})
	if got := pol.Decide(1024); got != policy.UseCPU {
		t.Fatalf("decide with dead NVML = %v, want CPU (fail safe)", got)
	}
}
