package cuda

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
	"time"

	"lakego/internal/gpu"
	"lakego/internal/vtime"
)

func newAPI() *API {
	return NewAPI(gpu.New(gpu.DefaultSpec(), vtime.New()))
}

func TestRequiresInit(t *testing.T) {
	a := newAPI()
	if _, r := a.DeviceGetCount(); r != ErrNotInitialized {
		t.Fatalf("DeviceGetCount before Init = %v, want ErrNotInitialized", r)
	}
	if _, r := a.MemAlloc(64); r != ErrNotInitialized {
		t.Fatalf("MemAlloc before Init = %v, want ErrNotInitialized", r)
	}
	if r := a.Init(); r != Success {
		t.Fatalf("Init = %v", r)
	}
	if n, r := a.DeviceGetCount(); r != Success || n != 1 {
		t.Fatalf("DeviceGetCount = %d, %v", n, r)
	}
	if name, r := a.DeviceGetName(); r != Success || name == "" {
		t.Fatalf("DeviceGetName = %q, %v", name, r)
	}
}

func TestMemRoundTrip(t *testing.T) {
	a := newAPI()
	a.Init()
	ptr, r := a.MemAlloc(16)
	if r != Success {
		t.Fatal(r)
	}
	src := []byte{1, 2, 3, 4}
	if r := a.MemcpyHtoD(ptr, src); r != Success {
		t.Fatal(r)
	}
	dst := make([]byte, 4)
	if r := a.MemcpyDtoH(dst, ptr); r != Success {
		t.Fatal(r)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("dst = %v, want %v", dst, src)
		}
	}
	if r := a.MemFree(ptr); r != Success {
		t.Fatal(r)
	}
	if r := a.MemFree(ptr); r != ErrInvalidValue {
		t.Fatalf("double free = %v, want ErrInvalidValue", r)
	}
}

func TestMemcpyBoundsChecked(t *testing.T) {
	a := newAPI()
	a.Init()
	ptr, _ := a.MemAlloc(4)
	if r := a.MemcpyHtoD(ptr, make([]byte, 8)); r != ErrInvalidValue {
		t.Fatalf("oversized HtoD = %v, want ErrInvalidValue", r)
	}
	if r := a.MemcpyDtoH(make([]byte, 8), ptr); r != ErrInvalidValue {
		t.Fatalf("oversized DtoH = %v, want ErrInvalidValue", r)
	}
	if r := a.MemcpyHtoD(gpu.DevPtr(0xdead), []byte{1}); r != ErrInvalidValue {
		t.Fatalf("HtoD to bad ptr = %v, want ErrInvalidValue", r)
	}
}

func TestMemcpyChargesTransferTime(t *testing.T) {
	clk := vtime.New()
	dev := gpu.New(gpu.DefaultSpec(), clk)
	a := NewAPI(dev)
	a.Init()
	ptr, _ := a.MemAlloc(1 << 20)
	before := clk.Now()
	a.MemcpyHtoD(ptr, make([]byte, 1<<20))
	elapsed := clk.Now() - before
	want := dev.TransferTime(1 << 20)
	if elapsed != want {
		t.Fatalf("HtoD advanced clock by %v, want %v", elapsed, want)
	}
}

func TestVecAddEndToEnd(t *testing.T) {
	a := newAPI()
	a.RegisterKernel(VecAddKernel())
	a.Init()
	ctx, r := a.CtxCreate("test")
	if r != Success {
		t.Fatal(r)
	}
	mod, r := a.ModuleLoad("kernels.cubin")
	if r != Success {
		t.Fatal(r)
	}
	fn, r := a.ModuleGetFunction(mod, "vecadd")
	if r != Success {
		t.Fatal(r)
	}

	const n = 128
	av, bv := make([]float32, n), make([]float32, n)
	for i := 0; i < n; i++ {
		av[i], bv[i] = float32(i), float32(2*i)
	}
	abytes, bbytes := make([]byte, 4*n), make([]byte, 4*n)
	PutFloat32s(abytes, av)
	PutFloat32s(bbytes, bv)

	ap, _ := a.MemAlloc(4 * n)
	bp, _ := a.MemAlloc(4 * n)
	cp, _ := a.MemAlloc(4 * n)
	a.MemcpyHtoD(ap, abytes)
	a.MemcpyHtoD(bp, bbytes)

	if r := a.LaunchKernel(ctx, fn, []uint64{uint64(ap), uint64(bp), uint64(cp), n}); r != Success {
		t.Fatalf("LaunchKernel = %v", r)
	}
	out := make([]byte, 4*n)
	a.MemcpyDtoH(out, cp)
	cv, err := Float32s(out, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if cv[i] != float32(3*i) {
			t.Fatalf("c[%d] = %v, want %v", i, cv[i], float32(3*i))
		}
	}
	if a.Device().Launches() != 1 {
		t.Fatalf("Launches = %d, want 1", a.Device().Launches())
	}
}

func TestLaunchErrors(t *testing.T) {
	a := newAPI()
	a.Init()
	ctx, _ := a.CtxCreate("t")
	if r := a.LaunchKernel(999, 1, nil); r != ErrInvalidContext {
		t.Fatalf("bad ctx = %v, want ErrInvalidContext", r)
	}
	if r := a.LaunchKernel(ctx, 999, nil); r != ErrInvalidHandle {
		t.Fatalf("bad fn = %v, want ErrInvalidHandle", r)
	}
	mod, _ := a.ModuleLoad("m")
	if _, r := a.ModuleGetFunction(mod, "missing"); r != ErrNotFound {
		t.Fatalf("missing kernel = %v, want ErrNotFound", r)
	}
	if _, r := a.ModuleGetFunction(12345, "x"); r != ErrInvalidHandle {
		t.Fatalf("bad module = %v, want ErrInvalidHandle", r)
	}
}

func TestKernelBodyErrorSurfacesAsLaunchFailed(t *testing.T) {
	a := newAPI()
	a.RegisterKernel(VecAddKernel())
	a.Init()
	ctx, _ := a.CtxCreate("t")
	mod, _ := a.ModuleLoad("m")
	fn, _ := a.ModuleGetFunction(mod, "vecadd")
	// Wrong arg count -> kernel body errors -> launch failed.
	if r := a.LaunchKernel(ctx, fn, []uint64{1, 2}); r != ErrLaunchFailed {
		t.Fatalf("launch with bad args = %v, want ErrLaunchFailed", r)
	}
}

func TestCtxLifecycle(t *testing.T) {
	a := newAPI()
	a.Init()
	ctx, _ := a.CtxCreate("")
	if r := a.CtxSynchronize(ctx); r != Success {
		t.Fatal(r)
	}
	if r := a.CtxDestroy(ctx); r != Success {
		t.Fatal(r)
	}
	if r := a.CtxDestroy(ctx); r != ErrInvalidContext {
		t.Fatalf("destroy twice = %v, want ErrInvalidContext", r)
	}
	if r := a.CtxSynchronize(ctx); r != ErrInvalidContext {
		t.Fatalf("sync dead ctx = %v, want ErrInvalidContext", r)
	}
}

func TestResultStrings(t *testing.T) {
	if Success.String() != "CUDA_SUCCESS" {
		t.Fatalf("Success.String() = %q", Success)
	}
	if Success.Err() != nil {
		t.Fatal("Success.Err() != nil")
	}
	if ErrOutOfMemory.Err() == nil {
		t.Fatal("ErrOutOfMemory.Err() = nil")
	}
	if Result(12345).String() == "" {
		t.Fatal("unknown result has empty string")
	}
}

// Property: float32 slices survive a Put/Get round trip exactly.
func TestQuickFloat32RoundTrip(t *testing.T) {
	f := func(vals []float32) bool {
		buf := make([]byte, 4*len(vals))
		if err := PutFloat32s(buf, vals); err != nil {
			return false
		}
		got, err := Float32s(buf, len(vals))
		if err != nil {
			return false
		}
		for i := range vals {
			// NaN-safe bitwise comparison.
			a, b := vals[i], got[i]
			if a != b && !(a != a && b != b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The staging codec moves bits, not values: signalling and payload NaNs,
// -0, subnormals and infinities come back with the bits they went in with,
// and the staged bytes are each float's bits in the host's byte order.
func TestFloat32sBitExact(t *testing.T) {
	bits := []uint32{
		0x7f800001, // signalling NaN
		0x7fc12345, // quiet NaN with a payload
		0x80000000, // -0
		0x00000001, // smallest subnormal
		0x7f800000, // +Inf
		0xff800000, // -Inf
		math.Float32bits(math.MaxFloat32),
	}
	vals := make([]float32, len(bits))
	for i, b := range bits {
		vals[i] = math.Float32frombits(b)
	}
	buf := make([]byte, 4*len(vals))
	if err := PutFloat32s(buf, vals); err != nil {
		t.Fatal(err)
	}
	for i, b := range bits {
		if got := binary.NativeEndian.Uint32(buf[4*i:]); got != b {
			t.Errorf("staged float %d: bytes hold %#08x, want %#08x", i, got, b)
		}
	}
	read := make([]float32, len(vals))
	if err := ReadFloat32s(read, buf); err != nil {
		t.Fatal(err)
	}
	owned, err := Float32s(buf, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bits {
		if math.Float32bits(read[i]) != b || math.Float32bits(owned[i]) != b {
			t.Errorf("float %d: read %#08x and %#08x, want %#08x", i, math.Float32bits(read[i]), math.Float32bits(owned[i]), b)
		}
	}
}

func TestFloat32sEmptyAndShort(t *testing.T) {
	for _, v := range [][]float32{nil, {}} {
		if err := PutFloat32s(nil, v); err != nil {
			t.Fatalf("Put %v into nil: %v", v, err)
		}
		if err := ReadFloat32s(v, nil); err != nil {
			t.Fatalf("Read %v from nil: %v", v, err)
		}
	}
	if got, err := Float32s(nil, 0); err != nil || len(got) != 0 {
		t.Fatalf("Float32s(nil, 0) = %v, %v", got, err)
	}
	const want = "cuda: buffer 7 bytes, need 8"
	short, two := make([]byte, 7), []float32{1, 2}
	if err := PutFloat32s(short, two); err == nil || err.Error() != want {
		t.Errorf("Put short = %v, want %q", err, want)
	}
	if err := ReadFloat32s(two, short); err == nil || err.Error() != want {
		t.Errorf("Read short = %v, want %q", err, want)
	}
	if _, err := Float32s(short, 2); err == nil || err.Error() != want {
		t.Errorf("Float32s short = %v, want %q", err, want)
	}
}

// Staging is one copy each way and allocates nothing.
func TestFloat32sAllocateNothing(t *testing.T) {
	vals := make([]float32, 1024)
	buf := make([]byte, 4*len(vals))
	if n := testing.AllocsPerRun(100, func() { PutFloat32s(buf, vals) }); n != 0 {
		t.Errorf("PutFloat32s: %v allocs", n)
	}
	if n := testing.AllocsPerRun(100, func() { ReadFloat32s(vals, buf) }); n != 0 {
		t.Errorf("ReadFloat32s: %v allocs", n)
	}
}

func TestChargeTransfer(t *testing.T) {
	clk := vtime.New()
	a := NewAPI(gpu.New(gpu.DefaultSpec(), clk))
	d := a.ChargeTransferFor(0, 12<<20) // ordinal 0: the primary device's link
	if clk.Now() != d || d < 900*time.Microsecond {
		t.Fatalf("ChargeTransferFor = %v, clock %v", d, clk.Now())
	}
}

func TestDeviceGetNameBeforeInit(t *testing.T) {
	a := NewAPI(gpu.New(gpu.DefaultSpec(), vtime.New()))
	if _, r := a.DeviceGetName(); r != ErrNotInitialized {
		t.Fatalf("name before init = %v", r)
	}
	if _, r := a.MemAlloc(0); r != ErrNotInitialized {
		t.Fatalf("alloc before init = %v", r)
	}
	a.Init()
	if _, r := a.MemAlloc(-4); r != ErrInvalidValue {
		t.Fatalf("negative alloc = %v", r)
	}
	spec := gpu.DefaultSpec()
	spec.MemoryBytes = 16
	small := NewAPI(gpu.New(spec, vtime.New()))
	small.Init()
	if _, r := small.MemAlloc(1 << 20); r != ErrOutOfMemory {
		t.Fatalf("oversized alloc = %v", r)
	}
}

func TestMemGetInfoDirect(t *testing.T) {
	a := NewAPI(gpu.New(gpu.DefaultSpec(), vtime.New()))
	if _, _, r := a.MemGetInfo(); r != ErrNotInitialized {
		t.Fatalf("before init = %v", r)
	}
	a.Init()
	free, total, r := a.MemGetInfo()
	if r != Success || free != total {
		t.Fatalf("fresh device free=%d total=%d", free, total)
	}
}
