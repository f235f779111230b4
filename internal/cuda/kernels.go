package cuda

import (
	"fmt"
	"unsafe"

	"lakego/internal/gpu"
)

// PutFloat32s copies vals into dst, which must hold 4*len(vals) bytes, in
// the host's byte order: one copy, no per-element encoding. It is the
// host-side helper every workload uses to stage tensors into device (or
// shared) memory. lakeShm is one address space that lakeLib and lakeD
// share, and these helpers are the only code that reads or writes staged
// floats, so the host's order is the one both sides read.
func PutFloat32s(dst []byte, vals []float32) error {
	if len(dst) < 4*len(vals) {
		return fmt.Errorf("cuda: buffer %d bytes, need %d", len(dst), 4*len(vals))
	}
	copy(dst, floatBytes(vals))
	return nil
}

// Float32s returns a new slice of the n host-order float32 values at the
// start of src; the caller owns it.
func Float32s(src []byte, n int) ([]float32, error) {
	if len(src) < 4*n { // before make: n can come off the wire
		return nil, fmt.Errorf("cuda: buffer %d bytes, need %d", len(src), 4*n)
	}
	out := make([]float32, n)
	return out, ReadFloat32s(out, src)
}

// ReadFloat32s copies len(dst) host-order float32 values from src into dst
// in one copy: Float32s for callers that own the destination.
func ReadFloat32s(dst []float32, src []byte) error {
	if len(src) < 4*len(dst) {
		return fmt.Errorf("cuda: buffer %d bytes, need %d", len(src), 4*len(dst))
	}
	copy(floatBytes(dst), src)
	return nil
}

// floatBytes is v's memory as bytes, 4*len(v) of them; nil for an empty v.
func floatBytes(v []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v))
}

// VecAddKernel returns the classic element-wise c = a + b kernel over
// float32 vectors. Args: [aPtr, bPtr, cPtr, n]. The quickstart example and
// the remoting tests use it as the minimal end-to-end device computation.
func VecAddKernel() *Kernel {
	return &Kernel{
		Name: "vecadd",
		Flops: func(args []uint64) float64 {
			if len(args) != 4 {
				return 0
			}
			return float64(args[3]) // one add per element
		},
		Body: func(dev *gpu.Device, args []uint64) error {
			if len(args) != 4 {
				return fmt.Errorf("vecadd: want 4 args, got %d", len(args))
			}
			n := int(args[3])
			abuf, err := dev.Bytes(gpu.DevPtr(args[0]))
			if err != nil {
				return err
			}
			bbuf, err := dev.Bytes(gpu.DevPtr(args[1]))
			if err != nil {
				return err
			}
			cbuf, err := dev.Bytes(gpu.DevPtr(args[2]))
			if err != nil {
				return err
			}
			av, err := Float32s(abuf, n)
			if err != nil {
				return err
			}
			bv, err := Float32s(bbuf, n)
			if err != nil {
				return err
			}
			cv := make([]float32, n)
			for i := range cv {
				cv[i] = av[i] + bv[i]
			}
			return PutFloat32s(cbuf, cv)
		},
	}
}
