package remoting

import (
	"testing"

	"lakego/internal/cuda"
	"lakego/internal/gpu"
)

// doubleKernel is an offload-style inference kernel (args = [in, out, n])
// that doubles each input float, used to verify batched scatter/gather.
func doubleKernel() *cuda.Kernel {
	return &cuda.Kernel{
		Name:  "double",
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
			n := int(args[2])
			xs, err := cuda.Float32s(inMem, n)
			if err != nil {
				return err
			}
			out := make([]float32, n)
			for i, x := range xs {
				out[i] = 2 * x
			}
			return cuda.PutFloat32s(outMem, out)
		},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	bt := &Batch{Entries: []BatchEntry{
		{Seq: 3, InOff: 64, OutOff: 256, Count: 2},
		{Seq: 9, InOff: 1024, OutOff: 2048, Count: 16},
	}}
	frame, err := AppendBatch(nil, bt)
	if err != nil {
		t.Fatal(err)
	}
	var got Batch
	if err := UnmarshalBatchInto(&got, frame); err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 2 || got.Entries[0] != bt.Entries[0] || got.Entries[1] != bt.Entries[1] {
		t.Fatalf("round trip mismatch: %+v", got.Entries)
	}
	if err := UnmarshalBatchInto(&got, frame[:len(frame)-1]); err == nil {
		t.Fatal("truncated frame decoded")
	}
	if err := UnmarshalBatchInto(&got, append(frame, 0)); err == nil {
		t.Fatal("frame with trailing bytes decoded")
	}
}

// TestBatchedInferScatterGather drives APIBatchedInfer end to end: three
// requests with distinct shm slices must come back demuxed by sequence with
// each output scattered to its own slice, from a single kernel launch.
func TestBatchedInferScatterGather(t *testing.T) {
	s := newStack(t)
	s.api.RegisterKernel(doubleKernel())
	s.lib.CuInit()
	ctx, _ := s.lib.CuCtxCreate("kernel-batch")
	mod, _ := s.lib.CuModuleLoad("batch.cubin")
	fn, r := s.lib.CuModuleGetFunction(mod, "double")
	if r != cuda.Success {
		t.Fatalf("CuModuleGetFunction = %v", r)
	}
	const maxItems = 16
	devIn, _ := s.lib.CuMemAlloc(4 * maxItems)
	devOut, _ := s.lib.CuMemAlloc(4 * maxItems)
	spec := BatchSpec{Ctx: ctx, Fn: fn, DevIn: devIn, DevOut: devOut, InWidth: 1, OutWidth: 1}

	counts := []int{2, 3, 1}
	entries := make([]BatchEntry, len(counts))
	var inputs [][]float32
	outBufs := make([]int64, len(counts))
	next := float32(1)
	for i, c := range counts {
		in, _ := s.region.Alloc(int64(4 * c))
		out, _ := s.region.Alloc(int64(4 * c))
		xs := make([]float32, c)
		for j := range xs {
			xs[j] = next
			next++
		}
		cuda.PutFloat32s(in.Bytes(), xs)
		inputs = append(inputs, xs)
		outBufs[i] = out.Offset()
		entries[i] = BatchEntry{
			Seq: uint64(100 + i), InOff: uint64(in.Offset()), OutOff: uint64(out.Offset()), Count: uint32(c),
		}
	}

	launchesBefore := s.dev.Launches()
	var sc BatchScratch
	per, r := s.lib.CuBatchedInferInto("double", spec, entries, 0, &sc)
	if r != cuda.Success {
		t.Fatalf("CuBatchedInferInto = %v", r)
	}
	if s.dev.Launches() != launchesBefore+1 {
		t.Fatalf("launches = %d, want exactly one batched launch", s.dev.Launches()-launchesBefore)
	}
	if len(per) != len(entries) {
		t.Fatalf("%d per-entry results for %d entries", len(per), len(entries))
	}
	for i := range entries {
		if per[i] != cuda.Success {
			t.Fatalf("entry %d result = %v", i, per[i])
		}
		view, _ := s.region.At(outBufs[i], int64(4*counts[i]))
		got, _ := cuda.Float32s(view, counts[i])
		for j, y := range got {
			if y != 2*inputs[i][j] {
				t.Fatalf("entry %d item %d = %v, want %v", i, j, y, 2*inputs[i][j])
			}
		}
	}
}

// TestBatchedInferPartialFailure: an entry with a bad shm range fails alone
// while valid entries still execute.
func TestBatchedInferPartialFailure(t *testing.T) {
	s := newStack(t)
	s.api.RegisterKernel(doubleKernel())
	s.lib.CuInit()
	ctx, _ := s.lib.CuCtxCreate("kernel-batch")
	mod, _ := s.lib.CuModuleLoad("batch.cubin")
	fn, _ := s.lib.CuModuleGetFunction(mod, "double")
	devIn, _ := s.lib.CuMemAlloc(64)
	devOut, _ := s.lib.CuMemAlloc(64)
	spec := BatchSpec{Ctx: ctx, Fn: fn, DevIn: devIn, DevOut: devOut, InWidth: 1, OutWidth: 1}

	in, _ := s.region.Alloc(4)
	out, _ := s.region.Alloc(4)
	cuda.PutFloat32s(in.Bytes(), []float32{21})
	entries := []BatchEntry{
		{Seq: 1, InOff: uint64(in.Offset()), OutOff: uint64(out.Offset()), Count: 1},
		{Seq: 2, InOff: 1 << 40, OutOff: uint64(out.Offset()), Count: 1},             // bad input range
		{Seq: 3, InOff: uint64(in.Offset()), OutOff: uint64(out.Offset()), Count: 0}, // empty
	}
	var sc BatchScratch
	per, r := s.lib.CuBatchedInferInto("double", spec, entries, 0, &sc)
	if r != cuda.Success {
		t.Fatalf("CuBatchedInferInto = %v", r)
	}
	if len(per) != 3 || per[0] != cuda.Success || per[1] == cuda.Success || per[2] == cuda.Success {
		t.Fatalf("per-entry results = %v", per)
	}
	got, _ := cuda.Float32s(out.Bytes(), 1)
	if got[0] != 42 {
		t.Fatalf("valid entry output = %v, want 42", got[0])
	}
}

// TestBatchedInferRejectsOverflowingWidth: a width whose per-item byte
// count wraps (4<<62 is 0 in int) must not pass admission as a zero-byte
// entry and report success with its output never written.
func TestBatchedInferRejectsOverflowingWidth(t *testing.T) {
	s := newStack(t)
	s.api.RegisterKernel(doubleKernel())
	s.lib.CuInit()
	ctx, _ := s.lib.CuCtxCreate("kernel-batch")
	mod, _ := s.lib.CuModuleLoad("batch.cubin")
	fn, _ := s.lib.CuModuleGetFunction(mod, "double")
	devIn, _ := s.lib.CuMemAlloc(64)
	devOut, _ := s.lib.CuMemAlloc(64)
	in, _ := s.region.Alloc(4)
	out, _ := s.region.Alloc(4)
	cuda.PutFloat32s(in.Bytes(), []float32{21})
	cuda.PutFloat32s(out.Bytes(), []float32{-7})
	entries := []BatchEntry{{Seq: 1, InOff: uint64(in.Offset()), OutOff: uint64(out.Offset()), Count: 1}}
	for _, w := range []struct{ in, out int }{{1 << 62, 1 << 62}, {1 << 62, 1}, {1, 1 << 62}, {maxBlob/4 + 1, 1}} {
		spec := BatchSpec{Ctx: ctx, Fn: fn, DevIn: devIn, DevOut: devOut, InWidth: w.in, OutWidth: w.out}
		var sc BatchScratch
		per, r := s.lib.CuBatchedInferInto("double", spec, entries, 0, &sc)
		if r != cuda.ErrInvalidValue || len(per) != 0 {
			t.Errorf("widths %d/%d: results %v, command %v; want the command rejected with %v",
				w.in, w.out, per, r, cuda.ErrInvalidValue)
		}
		if got, _ := cuda.Float32s(out.Bytes(), 1); got[0] != -7 {
			t.Fatalf("widths %d/%d: output = %v, want it untouched", w.in, w.out, got[0])
		}
	}
}
