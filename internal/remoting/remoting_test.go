package remoting

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"lakego/internal/boundary"
	"lakego/internal/cuda"
	"lakego/internal/faults"
	"lakego/internal/flightrec"
	"lakego/internal/gpu"
	"lakego/internal/shm"
	"lakego/internal/vtime"
)

// stack assembles the full remoting pipeline used across the tests.
type stack struct {
	clock  *vtime.Clock
	dev    *gpu.Device
	api    *cuda.API
	region *shm.Region
	tr     *boundary.RingTransport
	daemon *Daemon
	lib    *Lib
}

func newStack(t *testing.T) *stack {
	t.Helper()
	clock := vtime.New()
	dev := gpu.New(gpu.DefaultSpec(), clock)
	api := cuda.NewAPI(dev)
	api.RegisterKernel(cuda.VecAddKernel())
	region, err := shm.NewRegion(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := boundary.NewRingTransport(clock, nil, 16, boundary.DefaultSlotBytes)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetCostModel(boundary.Netlink)
	daemon := NewDaemon(api, region, tr)
	lib := NewLib(tr, daemon)
	return &stack{clock, dev, api, region, tr, daemon, lib}
}

func TestCommandRoundTrip(t *testing.T) {
	c := &Command{
		API:  APICuLaunchKernel,
		Seq:  42,
		Args: []uint64{1, 2, 3, 0xdeadbeef},
		Name: "vecadd",
		Blob: []byte{9, 8, 7},
	}
	frame, err := AppendCommand(nil, c)
	if err != nil {
		t.Fatal(err)
	}
	var got Command
	if err := DecodeCommandInto(&got, map[string]string{}, frame); err != nil {
		t.Fatal(err)
	}
	if got.API != c.API || got.Seq != c.Seq || got.Name != c.Name ||
		len(got.Args) != 4 || got.Args[3] != 0xdeadbeef ||
		!bytes.Equal(got.Blob, c.Blob) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	r := &Response{Seq: 7, Result: int32(cuda.ErrNotFound), Vals: []uint64{11}, Blob: []byte("x")}
	frame, err := AppendResponse(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	var got Response
	if err := DecodeResponseInto(&got, frame); err != nil {
		t.Fatal(err)
	}
	if got.Seq != 7 || got.Result != int32(cuda.ErrNotFound) ||
		len(got.Vals) != 1 || got.Vals[0] != 11 || string(got.Blob) != "x" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestUnmarshalRejectsCorruptFrames(t *testing.T) {
	var cmd Command
	names := map[string]string{}
	good, _ := AppendCommand(nil, &Command{API: APICuInit, Args: []uint64{1}})
	for cut := 0; cut < len(good); cut++ {
		if err := DecodeCommandInto(&cmd, names, good[:cut]); err == nil {
			t.Fatalf("truncated frame at %d bytes unmarshalled", cut)
		}
	}
	if err := DecodeCommandInto(&cmd, names, []byte{0x00, 0x01}); err == nil {
		t.Fatal("bad magic accepted")
	}
	var resp Response
	goodR, _ := AppendResponse(nil, &Response{Seq: 1, Vals: []uint64{2}})
	for cut := 0; cut < len(goodR); cut++ {
		if err := DecodeResponseInto(&resp, goodR[:cut]); err == nil {
			t.Fatalf("truncated response at %d bytes unmarshalled", cut)
		}
	}
}

func TestAPIIDString(t *testing.T) {
	if APICuMemAlloc.String() != "cuMemAlloc" {
		t.Fatalf("APICuMemAlloc = %q", APICuMemAlloc)
	}
	if APIID(9999).String() == "" {
		t.Fatal("unknown id stringifies empty")
	}
	if got := APIID(16).String(); got != "api(16)" {
		t.Fatalf("reserved id 16 = %q, want api(16)", got)
	}
	if got := APIID(24).String(); got != "api(24)" {
		t.Fatalf("reserved id 24 = %q, want api(24)", got)
	}
}

// Recorded dumps, journals and the frozen wire frames carry API ids as
// numbers, so the ids after the reserved 16–21 block and the reserved id 24
// must never move.
func TestAPIIDsPinned(t *testing.T) {
	for id, want := range map[APIID]uint32{
		APIHighLevel:             15,
		APICuMemGetInfo:          22,
		APIBatchedInfer:          23,
		APINvmlDeviceUtilization: 25,
	} {
		if uint32(id) != want {
			t.Errorf("%s = %d, want %d", id, uint32(id), want)
		}
	}
}

// A reserved id travels the whole path — stub, ring, lakeD dispatch — and
// comes back as ErrInvalidValue; the daemon keeps serving afterwards. Id 24
// is sent as the retired heartbeat was, with no arguments: a stale
// heartbeat frame gets the same answer.
func TestReservedAPIIDsAnsweredInvalid(t *testing.T) {
	s := newStack(t)
	for _, id := range []APIID{16, 17, 18, 19, 20, 21, 24} {
		cs := s.lib.newCall(id)
		if id != 24 {
			cs.cmd.Args = append(cs.cmd.Args, 1, 0, 64, 1)
		}
		if r := s.lib.doCall(cs); r != cuda.ErrInvalidValue {
			t.Errorf("%s: result %s, want %s", id, r, cuda.ErrInvalidValue)
		}
		s.lib.done(cs)
	}
	if r := s.lib.CuInit(); r != cuda.Success {
		t.Fatalf("CuInit after reserved ids: %s", r)
	}
}

// A shm copy's offset comes off the wire: one whose end wraps past MaxInt64
// is answered ErrInvalidValue, not recovered from as a handler panic.
func TestShmCopyWrappingOffsetAnsweredInvalid(t *testing.T) {
	s := newStack(t)
	for _, api := range []APIID{APICuMemcpyHtoD, APICuMemcpyDtoH} {
		cs := s.lib.newCall(api)
		cs.cmd.Args = append(cs.cmd.Args, 1, 1<<63-1, 64, 1)
		if r := s.lib.doCall(cs); r != cuda.ErrInvalidValue {
			t.Errorf("%s: result %s, want %s", api, r, cuda.ErrInvalidValue)
		}
		s.lib.done(cs)
	}
	for _, e := range s.daemon.Errors() {
		if strings.Contains(e, "panic") {
			t.Error(e)
		}
	}
}

func TestRemotedInitAndDeviceQueries(t *testing.T) {
	s := newStack(t)
	if r := s.lib.CuInit(); r != cuda.Success {
		t.Fatalf("CuInit = %v", r)
	}
	n, r := s.lib.CuDeviceGetCount()
	if r != cuda.Success || n != 1 {
		t.Fatalf("CuDeviceGetCount = %d, %v", n, r)
	}
	name, r := s.lib.CuDeviceGetName()
	if r != cuda.Success || name == "" {
		t.Fatalf("CuDeviceGetName = %q, %v", name, r)
	}
	if s.daemon.Handled() != 3 {
		t.Fatalf("daemon handled %d, want 3", s.daemon.Handled())
	}
}

func TestRemotedVecAddViaShm(t *testing.T) {
	s := newStack(t)
	s.lib.CuInit()
	ctx, _ := s.lib.CuCtxCreate("kernel-app")
	mod, _ := s.lib.CuModuleLoad("kernels.cubin")
	fn, r := s.lib.CuModuleGetFunction(mod, "vecadd")
	if r != cuda.Success {
		t.Fatalf("CuModuleGetFunction = %v", r)
	}

	const n = 64
	av, bv := make([]float32, n), make([]float32, n)
	for i := range av {
		av[i], bv[i] = float32(i), float32(i*10)
	}
	// Kernel app allocates copiable memory via lakeShm (§4.1).
	abuf, _ := s.region.Alloc(4 * n)
	bbuf, _ := s.region.Alloc(4 * n)
	cbuf, _ := s.region.Alloc(4 * n)
	cuda.PutFloat32s(abuf.Bytes(), av)
	cuda.PutFloat32s(bbuf.Bytes(), bv)

	ap, _ := s.lib.CuMemAlloc(4 * n)
	bp, _ := s.lib.CuMemAlloc(4 * n)
	cp, _ := s.lib.CuMemAlloc(4 * n)
	if r := s.lib.CuMemcpyHtoDShm(ap, abuf, 4*n); r != cuda.Success {
		t.Fatalf("HtoD a = %v", r)
	}
	if r := s.lib.CuMemcpyHtoDShm(bp, bbuf, 4*n); r != cuda.Success {
		t.Fatalf("HtoD b = %v", r)
	}
	if r := s.lib.CuLaunchKernel(ctx, fn, []uint64{uint64(ap), uint64(bp), uint64(cp), n}); r != cuda.Success {
		t.Fatalf("launch = %v", r)
	}
	if r := s.lib.CuMemcpyDtoHShm(cbuf, cp, 4*n); r != cuda.Success {
		t.Fatalf("DtoH = %v", r)
	}
	cv, err := cuda.Float32s(cbuf.Bytes(), n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cv {
		if cv[i] != float32(i*11) {
			t.Fatalf("c[%d] = %v, want %v", i, cv[i], float32(i*11))
		}
	}
	if s.clock.Now() == 0 {
		t.Fatal("virtual clock did not advance across remoted calls")
	}
}

func TestRemotedInlineCopyPath(t *testing.T) {
	s := newStack(t)
	s.lib.CuInit()
	ptr, _ := s.lib.CuMemAlloc(8)
	src := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if r := s.lib.CuMemcpyHtoD(ptr, src); r != cuda.Success {
		t.Fatalf("inline HtoD = %v", r)
	}
	dst := make([]byte, 8)
	if r := s.lib.CuMemcpyDtoH(dst, ptr); r != cuda.Success {
		t.Fatalf("inline DtoH = %v", r)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("dst = %v, want %v", dst, src)
	}
}

func TestInlinePathCostsMoreThanShmPath(t *testing.T) {
	// Moving 16 KiB inline must charge more channel time than moving the
	// same bytes via lakeShm, where only the offset crosses the boundary.
	measure := func(viaShm bool) time.Duration {
		s := newStack(t)
		s.lib.CuInit()
		const n = 16 << 10
		ptr, _ := s.lib.CuMemAlloc(n)
		start := s.clock.Now()
		if viaShm {
			buf, _ := s.region.Alloc(n)
			if r := s.lib.CuMemcpyHtoDShm(ptr, buf, n); r != cuda.Success {
				t.Fatalf("shm HtoD = %v", r)
			}
		} else {
			if r := s.lib.CuMemcpyHtoD(ptr, make([]byte, n)); r != cuda.Success {
				t.Fatalf("inline HtoD = %v", r)
			}
		}
		return s.clock.Now() - start
	}
	inline, viaShm := measure(false), measure(true)
	if inline <= viaShm {
		t.Fatalf("inline copy (%v) not more expensive than shm copy (%v)", inline, viaShm)
	}
}

func TestHighLevelAPI(t *testing.T) {
	s := newStack(t)
	s.daemon.RegisterHighLevel("tf_infer", func(api *cuda.API, region *shm.Region, args []uint64, blob []byte) ([]uint64, []byte, cuda.Result) {
		// Echo back a transformed blob and a computed value.
		out := make([]byte, len(blob))
		for i, b := range blob {
			out[i] = b + 1
		}
		return []uint64{args[0] * 2}, out, cuda.Success
	})
	vals, blob, r := s.lib.CallHighLevel("tf_infer", []uint64{21}, []byte{1, 2})
	if r != cuda.Success {
		t.Fatalf("CallHighLevel = %v", r)
	}
	if len(vals) != 1 || vals[0] != 42 {
		t.Fatalf("vals = %v, want [42]", vals)
	}
	if !bytes.Equal(blob, []byte{2, 3}) {
		t.Fatalf("blob = %v, want [2 3]", blob)
	}
	if _, _, r := s.lib.CallHighLevel("missing", nil, nil); r != cuda.ErrNotFound {
		t.Fatalf("missing handler = %v, want ErrNotFound", r)
	}
}

// A handler result too large for the wire fails its one request with
// ErrUnknown, as a panicking handler does; encoding it must not panic the
// calling goroutine.
func TestHighLevelOversizedResultAnsweredUnknown(t *testing.T) {
	s := newStack(t)
	s.daemon.RegisterHighLevel("wide", func(api *cuda.API, region *shm.Region, args []uint64, blob []byte) ([]uint64, []byte, cuda.Result) {
		return make([]uint64, maxArgs+1), []byte{1}, cuda.Success
	})
	vals, blob, r := s.lib.CallHighLevel("wide", nil, nil)
	if r != cuda.ErrUnknown || vals != nil || blob != nil {
		t.Fatalf("oversized result = %d vals, %d blob bytes, %v; want none and ErrUnknown", len(vals), len(blob), r)
	}
	if errs := s.daemon.Errors(); len(errs) == 0 || !strings.Contains(errs[0], `"wide" seq=`) {
		t.Fatalf("daemon errors = %q, want the handler name and seq", errs)
	}
	if r := s.lib.CuInit(); r != cuda.Success {
		t.Fatalf("daemon dead after oversized result: %v", r)
	}
}

func TestErrorForwarding(t *testing.T) {
	s := newStack(t)
	// Before CuInit, remoted calls must forward CUDA's error code — the
	// kernel application does its own error checking (§4.1).
	if _, r := s.lib.CuMemAlloc(64); r != cuda.ErrNotInitialized {
		t.Fatalf("CuMemAlloc before init = %v, want ErrNotInitialized", r)
	}
	s.lib.CuInit()
	if r := s.lib.CuMemFree(gpu.DevPtr(0xbad)); r != cuda.ErrInvalidValue {
		t.Fatalf("bad free = %v, want ErrInvalidValue", r)
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := newStack(t)
	s.lib.CuInit()
	s.lib.CuDeviceGetCount()
	calls, channel := s.lib.Stats()
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
	if channel < 50*time.Microsecond {
		t.Fatalf("channel time = %v, want >= 2x netlink base", channel)
	}
}

// A failed exchange on a never-armed Lib takes the armed path's result: the
// single attempt exhausts the retry round, the daemon is latched dead and the
// stub surfaces ErrNotReady from then on.
func TestClosedTransportSurfacesError(t *testing.T) {
	s := newStack(t)
	s.tr.Close()
	if r := s.lib.CuInit(); r != cuda.ErrNotReady {
		t.Fatalf("CuInit on closed transport = %v, want ErrNotReady", r)
	}
	if s.lib.Healthy() {
		t.Fatal("failed exchange did not latch the daemon dead")
	}
	if rs := s.lib.ResilienceStats(); rs.DaemonDead != 1 || rs.Retries != 0 {
		t.Fatalf("un-armed lib retried or miscounted: %+v", rs)
	}
	if r := s.lib.CuInit(); r != cuda.ErrNotReady || s.lib.Healthy() {
		t.Fatalf("call behind the dead latch = %v, healthy %v; want ErrNotReady, latched", r, s.lib.Healthy())
	}
}

// TestFailedCallRecordsSurfacedResult pins that the flight recorder and the
// caller agree on a failed call: EvCallEnd carries the same mapped result
// the stub returned, both on the exchange that declares lakeD dead and on
// the fast-fail behind the latch.
func TestFailedCallRecordsSurfacedResult(t *testing.T) {
	s := newStack(t)
	rec := flightrec.New(s.clock, 64)
	rec.SetEnabled(true)
	s.lib.SetFlightRecorder(rec)
	s.tr.Close()
	surfaced := []cuda.Result{s.lib.CuInit(), s.lib.CuInit()}
	res := flightrec.Stitch(rec.Snapshot("test"))
	if len(res.Timelines) != len(surfaced) {
		t.Fatalf("stitched %d timelines, want %d", len(res.Timelines), len(surfaced))
	}
	for i, tl := range res.Timelines {
		if surfaced[i] != cuda.ErrNotReady || !tl.Completed || cuda.Result(tl.Result) != surfaced[i] {
			t.Errorf("call %d: caller saw %v, timeline recorded %v (completed=%v)",
				i, surfaced[i], cuda.Result(tl.Result), tl.Completed)
		}
	}
}

// TestRemotedCallEventsConstant is the recorder's per-call gate, as
// TestFlushEventsConstant is the flush's: a healthy remoted call adds
// exactly two kernel-domain events (call start and end), one daemon-domain
// event (the execution end, which carries the dispatch) and no boundary
// events. With a fault
// plane armed — even one that injects nothing — the frame events come back:
// send, doorbell and receive in each direction.
func TestRemotedCallEventsConstant(t *testing.T) {
	s := newStack(t)
	rec := flightrec.New(s.clock, 1024)
	rec.SetEnabled(true)
	rec.SetFramePeeker(PeekFrame)
	s.tr.SetFlightRecorder(rec)
	s.lib.SetFlightRecorder(rec)
	s.daemon.SetFlightRecorder(rec)
	if r := s.lib.CuInit(); r != cuda.Success {
		t.Fatalf("CuInit = %v", r)
	}
	count := func() (kernel, boundary, daemon int) {
		d := rec.Snapshot("gate")
		if d.TotalDropped() != 0 {
			t.Fatalf("recorder dropped %d events", d.TotalDropped())
		}
		return len(d.Domains[flightrec.DomainKernel].Events),
			len(d.Domains[flightrec.DomainBoundary].Events),
			len(d.Domains[flightrec.DomainDaemon].Events)
	}
	calls := func(n int) (kernel, boundary, daemon int) {
		k0, b0, d0 := count()
		for i := 0; i < n; i++ {
			if _, r := s.lib.CuDeviceGetCount(); r != cuda.Success {
				t.Fatalf("CuDeviceGetCount = %v", r)
			}
		}
		k1, b1, d1 := count()
		return k1 - k0, b1 - b0, d1 - d0
	}
	if k, b, d := calls(3); k != 6 || b != 0 || d != 3 {
		t.Fatalf("3 healthy calls added %d kernel, %d boundary, %d daemon events; want 6, 0, 3", k, b, d)
	}
	s.tr.InjectFaults(faults.NewPlane(faults.Mix{Seed: 1}, s.clock))
	if k, b, d := calls(1); k != 2 || b != 6 || d != 1 {
		t.Fatalf("a call under an armed plane added %d kernel, %d boundary, %d daemon events; want 2, 6, 1", k, b, d)
	}
}

// TestMarshalWallSampled: only a call whose sequence is 1 mod 64 times
// its marshal for EvCallStart.a2; every other call carries 0, unmeasured.
func TestMarshalWallSampled(t *testing.T) {
	s := newStack(t)
	rec := flightrec.New(s.clock, 1024)
	rec.SetEnabled(true)
	s.lib.SetFlightRecorder(rec)
	if r := s.lib.CuInit(); r != cuda.Success {
		t.Fatalf("CuInit = %v", r)
	}
	for i := 0; i < 200; i++ {
		if _, r := s.lib.CuDeviceGetCount(); r != cuda.Success {
			t.Fatalf("CuDeviceGetCount = %v", r)
		}
	}
	timed := 0
	for _, e := range rec.Snapshot("sample").Domains[flightrec.DomainKernel].Events {
		if e.Kind != flightrec.EvCallStart {
			continue
		}
		if e.Seq&63 != 1 && e.Arg2 != 0 {
			t.Fatalf("unsampled call seq %d carries a marshal time of %d ns", e.Seq, e.Arg2)
		}
		if e.Seq&63 == 1 && e.Arg2 > 0 {
			timed++
		}
	}
	if timed == 0 {
		t.Fatal("no sampled call (seq 1, 65, 129 or 193) carries a marshal time")
	}
}

func TestNvmlRemoted(t *testing.T) {
	s := newStack(t)
	s.clock.Advance(time.Second)
	g, m, r := s.lib.NvmlGetUtilization()
	if r != cuda.Success {
		t.Fatalf("NvmlGetUtilization = %v", r)
	}
	if g != 0 || m != 0 {
		t.Fatalf("idle utilization = %d,%d; want 0,0", g, m)
	}
}

// Property: any command survives marshal/unmarshal bit-exactly.
func TestQuickCommandRoundTrip(t *testing.T) {
	f := func(api uint32, seq uint64, args []uint64, name string, blob []byte) bool {
		if len(args) > 1000 || len(name) > 500 || len(blob) > 5000 {
			return true // outside wire limits; covered elsewhere
		}
		c := &Command{API: APIID(api), Seq: seq, Args: args, Name: name, Blob: blob}
		frame, err := AppendCommand(nil, c)
		if err != nil {
			return false
		}
		var got Command
		if err := DecodeCommandInto(&got, map[string]string{}, frame); err != nil {
			return false
		}
		if got.API != c.API || got.Seq != c.Seq || got.Name != c.Name {
			return false
		}
		if len(got.Args) != len(c.Args) {
			return false
		}
		for i := range c.Args {
			if got.Args[i] != c.Args[i] {
				return false
			}
		}
		return bytes.Equal(got.Blob, c.Blob)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRemotedMemGetInfo(t *testing.T) {
	s := newStack(t)
	s.lib.CuInit()
	free0, total, r := s.lib.CuMemGetInfo()
	if r != cuda.Success || total <= 0 || free0 != total {
		t.Fatalf("MemGetInfo = %d/%d, %v", free0, total, r)
	}
	s.lib.CuMemAlloc(1 << 20)
	free1, _, _ := s.lib.CuMemGetInfo()
	if free1 != free0-(1<<20) {
		t.Fatalf("free after alloc = %d, want %d", free1, free0-(1<<20))
	}
}
