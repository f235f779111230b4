package lake_test

import (
	"fmt"
	"log"

	lake "lakego"
	"lakego/internal/cuda"
)

// Example walks the full §4.1 workflow from "kernel space": boot the
// runtime, allocate copiable memory in lakeShm, remote CUDA driver calls
// through lakeLib over the Netlink channel to lakeD, launch a device
// kernel, and read the result back zero-copy.
func Example() {
	rt, err := lake.New(lake.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()
	rt.RegisterKernel(lake.VecAddKernel())
	lib := rt.Lib()

	// API-remoted operations (§4.1): every call below serializes a command,
	// crosses the boundary, executes in lakeD against the CUDA API, and
	// returns its result the same way.
	ctx, r := lib.CuCtxCreate("quickstart")
	must(r, "cuCtxCreate")
	mod, r := lib.CuModuleLoad("kernels.cubin")
	must(r, "cuModuleLoad")
	fn, r := lib.CuModuleGetFunction(mod, "vecadd")
	must(r, "cuModuleGetFunction")

	// Copiable memory allocations (§4.1): buffers that will move to/from
	// the accelerator live in lakeShm, shared by both domains.
	const n = 8
	av := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	bv := []float32{10, 20, 30, 40, 50, 60, 70, 80}
	a, err := rt.Region().Alloc(4 * n)
	if err != nil {
		log.Fatal(err)
	}
	b, err := rt.Region().Alloc(4 * n)
	if err != nil {
		log.Fatal(err)
	}
	c, err := rt.Region().Alloc(4 * n)
	if err != nil {
		log.Fatal(err)
	}
	cuda.PutFloat32s(a.Bytes(), av)
	cuda.PutFloat32s(b.Bytes(), bv)

	da, r := lib.CuMemAlloc(4 * n)
	must(r, "cuMemAlloc a")
	db, r := lib.CuMemAlloc(4 * n)
	must(r, "cuMemAlloc b")
	dc, r := lib.CuMemAlloc(4 * n)
	must(r, "cuMemAlloc c")

	must(lib.CuMemcpyHtoDShm(da, a, 4*n), "HtoD a")
	must(lib.CuMemcpyHtoDShm(db, b, 4*n), "HtoD b")
	must(lib.CuLaunchKernel(ctx, fn, []uint64{uint64(da), uint64(db), uint64(dc), n}), "launch vecadd")
	must(lib.CuMemcpyDtoHShm(c, dc, 4*n), "DtoH c")

	cv, err := cuda.Float32s(c.Bytes(), n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("a + b =", cv)

	st := rt.Stats()
	fmt.Printf("remoted %d calls over the %s channel in %v of modeled channel time\n",
		st.RemotedCalls, lake.Netlink, st.ChannelTime)
	fmt.Printf("device ran %d kernel(s); virtual time elapsed %v\n",
		st.KernelLaunches, st.VirtualTime)
	// Output:
	// a + b = [11 22 33 44 55 66 77 88]
	// remoted 11 calls over the Netlink channel in 319µs of modeled channel time
	// device ran 1 kernel(s); virtual time elapsed 345.006µs
}

func must(r lake.Result, what string) {
	if r != lake.Success {
		log.Fatalf("%s: %s", what, r)
	}
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
