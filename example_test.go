package lake_test

import (
	"fmt"
	"log"

	lake "lakego"
	"lakego/internal/cuda"
)

// Example demonstrates the full §4.1 workflow: boot the runtime, stage data
// in lakeShm, remote CUDA driver calls through lakeLib, and read the result
// back zero-copy.
func Example() {
	rt, err := lake.New(lake.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()
	rt.RegisterKernel(lake.VecAddKernel())

	lib := rt.Lib()
	ctx, _ := lib.CuCtxCreate("example")
	mod, _ := lib.CuModuleLoad("kernels.cubin")
	fn, _ := lib.CuModuleGetFunction(mod, "vecadd")

	const n = 4
	a, _ := rt.Region().Alloc(4 * n)
	c, _ := rt.Region().Alloc(4 * n)
	cuda.PutFloat32s(a.Bytes(), []float32{1, 2, 3, 4})

	da, _ := lib.CuMemAlloc(4 * n)
	dc, _ := lib.CuMemAlloc(4 * n)
	lib.CuMemcpyHtoDShm(da, a, 4*n)
	lib.CuLaunchKernel(ctx, fn, []uint64{uint64(da), uint64(da), uint64(dc), n})
	lib.CuMemcpyDtoHShm(c, dc, 4*n)

	out, _ := cuda.Float32s(c.Bytes(), n)
	fmt.Println(out)
	// Output: [2 4 6 8]
}

// Example_policy shows the Fig 3 adaptive policy deciding between CPU and
// GPU based on batch size and (remoted NVML) device utilization.
func Example_policy() {
	rt, err := lake.New(lake.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	pol := rt.NewAdaptivePolicy(lake.AdaptiveConfig{
		UtilThreshold: 40, BatchThreshold: 8, Window: 1,
	})
	fmt.Println("batch 2:", pol.Decide(2))
	fmt.Println("batch 64:", pol.Decide(64))
	// Output:
	// batch 2: CPU
	// batch 64: GPU
}

// Example_featureRegistry exercises the §5 Table 1 API: asynchronous
// capture with running counters and history fields, batch retrieval and
// truncation.
func Example_featureRegistry() {
	rt, err := lake.New(lake.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	reg, err := lake.NewFeatureStore().CreateRegistry("sda1", "bio_latency_prediction",
		lake.FeatureSchema{
			{Key: "pend_ios", Size: 8, Entries: 1},
			{Key: "io_latency", Size: 8, Entries: 4},
		}, 128)
	if err != nil {
		log.Fatal(err)
	}

	// I/O issue path (Listing 4): bump the pending counter, commit.
	reg.BeginCapture(0)
	reg.CaptureFeatureIncr("pend_ios", 1)
	reg.CommitCapture(1)
	// Completion path (Listing 5): one less pending.
	reg.CaptureFeatureIncr("pend_ios", -1)
	reg.BeginCapture(1)
	reg.CommitCapture(2)

	batch := reg.GetFeatures(lake.NullTS)
	fmt.Println("vectors:", len(batch))
	reg.Truncate(lake.NullTS)
	fmt.Println("after truncate:", reg.Len(), "(most recent kept for history)")
	// Output:
	// vectors: 2
	// after truncate: 1 (most recent kept for history)
}
