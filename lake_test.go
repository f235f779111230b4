package lake_test

import (
	"testing"

	lake "lakego"
)

// The public facade must support the full quickstart flow without touching
// internal packages.
func TestPublicAPIQuickstart(t *testing.T) {
	rt, err := lake.New(lake.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.RegisterKernel(lake.VecAddKernel())

	lib := rt.Lib()
	ctx, r := lib.CuCtxCreate("quickstart")
	if r != lake.Success {
		t.Fatal(r)
	}
	mod, _ := lib.CuModuleLoad("kernels")
	fn, r := lib.CuModuleGetFunction(mod, "vecadd")
	if r != lake.Success {
		t.Fatal(r)
	}

	const n = 8
	a, err := rt.Region().Alloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4*n; i++ {
		a.Bytes()[i] = 0 // zero vector: 0 + 0 = 0
	}
	ap, _ := lib.CuMemAlloc(4 * n)
	cp, _ := lib.CuMemAlloc(4 * n)
	lib.CuMemcpyHtoDShm(ap, a, 4*n)
	if r := lib.CuLaunchKernel(ctx, fn, []uint64{uint64(ap), uint64(ap), uint64(cp), n}); r != lake.Success {
		t.Fatal(r)
	}

	pol := rt.NewAdaptivePolicy(lake.DefaultAdaptiveConfig())
	if got := pol.Decide(1024); got != lake.UseGPU && got != lake.UseCPU {
		t.Fatalf("policy decision %v invalid", got)
	}

	reg, err := lake.NewFeatureStore().CreateRegistry("sda1", "demo", lake.FeatureSchema{
		{Key: "pend_ios", Size: 8, Entries: 1},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	reg.BeginCapture(0)
	reg.CaptureFeatureIncr("pend_ios", 1)
	reg.CommitCapture(1)
	if got := len(reg.GetFeatures(lake.NullTS)); got != 1 {
		t.Fatalf("feature vectors = %d, want 1", got)
	}

	if st := rt.Stats(); st.RemotedCalls == 0 || st.KernelLaunches != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPublicFigure3Program(t *testing.T) {
	rt, err := lake.New(lake.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	vp, err := rt.InstallVMPolicy(lake.Figure3Program(40, 8))
	if err != nil {
		t.Fatal(err)
	}
	if got := vp.Decide(64); got != lake.UseGPU {
		t.Fatalf("idle bytecode policy = %v, want GPU", got)
	}
}
