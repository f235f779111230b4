package nn

import (
	"bytes"
	"encoding/binary"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// bombBlob builds the 17-byte crafted blob that made the pre-fix Unmarshal
// allocate a 4 TiB weight slice: a valid magic and layer count followed by a
// single layer declaring 2^20 x 2^20 weights with no weight bytes present.
func bombBlob() []byte {
	b := binary.LittleEndian.AppendUint32(nil, marshalMagic)
	b = binary.LittleEndian.AppendUint32(b, 1)     // one layer
	b = binary.LittleEndian.AppendUint32(b, 1<<20) // in
	b = binary.LittleEndian.AppendUint32(b, 1<<20) // out
	return append(b, byte(ReLU))
}

// TestUnmarshalAllocationBomb is the regression test for the seed bug: the
// pre-fix decoder called make([]float32, in*out) before the remaining-bytes
// check, so this 17-byte blob demanded a 4 TiB allocation (a runtime panic
// or OOM kill). Post-fix it is rejected before any weight allocation.
func TestUnmarshalAllocationBomb(t *testing.T) {
	blob := bombBlob()
	if len(blob) != 17 {
		t.Fatalf("crafted blob is %d bytes, want 17", len(blob))
	}
	if _, err := Unmarshal(blob); err == nil {
		t.Fatal("allocation-bomb blob accepted")
	}
	// The shape checks must also hold per-layer deeper into a blob: a valid
	// first layer followed by a bomb layer.
	good := New(1, 2, 2).Marshal()
	multi := append([]byte{}, good...)
	binary.LittleEndian.PutUint32(multi[4:], 2) // claim a second layer
	multi = append(multi, bombBlob()[8:]...)    // header of the 2^20 x 2^20 layer
	if _, err := Unmarshal(multi); err == nil {
		t.Fatal("allocation-bomb second layer accepted")
	}
}

func TestSoftmaxEmpty(t *testing.T) {
	if got := softmax(nil); len(got) != 0 {
		t.Fatalf("softmax(nil) = %v, want empty", got)
	}
	if got := softmax([]float32{}); len(got) != 0 {
		t.Fatalf("softmax(empty) = %v, want empty", got)
	}
}

func TestPredictEmptyOutput(t *testing.T) {
	// A degenerate hand-built network with an empty output layer: Predict
	// must degrade to class 0, not index logits[0].
	n := &Network{Layers: []*Layer{{In: 2, Out: 0, W: nil, B: nil, Act: Linear}}}
	if got := n.Predict([]float32{1, 2}); got != 0 {
		t.Fatalf("Predict on empty output = %d, want 0", got)
	}
}

// The two-logit workloads (LinnOS, MLLB) decode with Argmax(y) == 1, which
// must be exactly the y[1] > y[0] rule they used to inline: strict, the
// first index wins a tie, and any comparison with NaN is false. Wider rows
// keep the first maximum, as KML's decoder always has.
func TestArgmaxDecisionRule(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	for _, y := range [][]float32{
		{0, 1}, {1, 0}, {2, 2}, {-3, -3},
		{0, negZero}, {negZero, 0},
		{nan, 1}, {1, nan}, {nan, nan}, {nan, inf}, {inf, nan},
		{inf, inf}, {-inf, -inf}, {-inf, inf}, {inf, -inf},
		{-inf, 0}, {0, inf}, {math.MaxFloat32, inf},
	} {
		if got, want := Argmax(y) == 1, y[1] > y[0]; got != want {
			t.Errorf("Argmax(%v) == 1 is %v, y[1] > y[0] is %v", y, got, want)
		}
	}
	for _, c := range []struct {
		y    []float32
		want int
	}{
		{[]float32{0, 3, 3, 1}, 1},
		{[]float32{5, 5, 5, 5}, 0},
		{[]float32{-1, -2, 4, 4}, 2},
		{[]float32{nan, 1, 2, 2}, 0},
		{[]float32{1, nan, 2, 2}, 2},
		{nil, 0},
	} {
		if got := Argmax(c.y); got != c.want {
			t.Errorf("Argmax(%v) = %d, want %d", c.y, got, c.want)
		}
	}
}

// Hand-built degenerate layers on slabs of four rows and more, where the
// eight- and four-row kernels take the groups: an empty last layer writes
// nothing (the lanes need Out >= 1: the chain clamp of Out == 0 would reach
// b[-1] and y[-1]), and a layer of no inputs puts out its biases.
func TestForwardSlabDegenerateShapes(t *testing.T) { EachKernel(t, testForwardSlabDegenerateShapes) }

func testForwardSlabDegenerateShapes(t *testing.T) {
	const canary = 0x7FC0DEAD
	empty := &Network{Layers: []*Layer{{In: 2, Out: 0, Act: Linear}}}
	noInputs := &Network{Layers: []*Layer{{In: 0, Out: 3, B: []float32{-1, 0.5, 2}, Act: ReLU}}}
	hiddenNoInputs := &Network{Layers: []*Layer{
		{In: 0, Out: 3, B: []float32{-1, 0.5, 2}, Act: ReLU},
		{In: 3, Out: 2, W: []float32{1, 2, 3, 4, 5, 6}, B: []float32{0.25, -0.25}, Act: Linear},
	}}
	for _, n := range []*Network{empty, noInputs, hiddenNoInputs} {
		for _, items := range []int{4, 5, 8, 9, 12, 13, 17} {
			in := make([]float32, items*n.InputSize())
			for i := range in {
				in[i] = float32(i + 1)
			}
			outW := n.OutputSize()
			buf := make([]float32, 8+items*outW+8)
			for i := range buf {
				buf[i] = math.Float32frombits(canary)
			}
			out := buf[8 : 8+items*outW]
			if err := n.ForwardSlab(in, items, out); err != nil {
				t.Fatalf("sizes %v, %d items: %v", n.Sizes(), items, err)
			}
			for i, v := range buf {
				if (i < 8 || i >= 8+len(out)) && math.Float32bits(v) != canary {
					t.Fatalf("sizes %v, %d items: wrote %v outside out at %d", n.Sizes(), items, v, i-8)
				}
			}
			want := n.forwardRef(in[:n.InputSize()])
			for i := 0; i < items; i++ {
				for j, w := range want {
					if got := out[i*outW+j]; math.Float32bits(got) != math.Float32bits(w) {
						t.Fatalf("sizes %v, %d items: row %d output %d = %v, want %v", n.Sizes(), items, i, j, got, w)
					}
				}
			}
		}
	}
	if got := noInputs.Forward(nil); got[0] != 0 || got[1] != 0.5 || got[2] != 2 {
		t.Fatalf("zero-input layer gives %v, want its biases after ReLU", got)
	}
}

func TestClone(t *testing.T) {
	n := New(5, 3, 8, 2)
	c := n.Clone()
	if !bytes.Equal(n.Marshal(), c.Marshal()) {
		t.Fatal("clone is not bit-identical")
	}
	c.Layers[0].W[0] += 1
	if n.Layers[0].W[0] == c.Layers[0].W[0] {
		t.Fatal("clone shares weight storage with the original")
	}
}

// TestTrainBatchScratchMatchesTrainBatch pins the scratch path to the
// allocating path bit-for-bit: the lifecycle trainer runs on scratch, and a
// numeric divergence would silently change every retrained model.
func TestTrainBatchScratchMatchesTrainBatch(t *testing.T) {
	a, b := New(11, 4, 8, 2), New(11, 4, 8, 2)
	s := NewScratch(b)
	xs := [][]float32{{1, 0, -1, 0.5}, {0, 1, 0.25, -1}, {0.5, 0.5, 0.5, 0.5}}
	labels := []int{0, 1, 0}
	for step := 0; step < 50; step++ {
		la, err := a.TrainBatch(xs, labels, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := b.TrainBatchScratch(s, xs, labels, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if la != lb {
			t.Fatalf("step %d: loss %v (alloc) vs %v (scratch)", step, la, lb)
		}
	}
	if !bytes.Equal(a.Marshal(), b.Marshal()) {
		t.Fatal("scratch training diverged from allocating training")
	}
}

func TestTrainBatchScratchShapeMismatch(t *testing.T) {
	n := New(1, 4, 2)
	s := NewScratch(New(1, 4, 8, 2))
	if _, err := n.TrainBatchScratch(s, [][]float32{{1, 2, 3, 4}}, []int{0}, 0.1); err == nil {
		t.Fatal("mismatched scratch accepted")
	}
}

// TestTrainBatchScratchNoGarbage pins the online trainer's premise: steady
// state SGD steps allocate nothing.
func TestTrainBatchScratchNoGarbage(t *testing.T) {
	n := New(3, 4, 8, 2)
	s := NewScratch(n)
	xs := [][]float32{{1, 0, 0, 0}, {0, 1, 0, 0}}
	labels := []int{0, 1}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := n.TrainBatchScratch(s, xs, labels, 0.05); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("TrainBatchScratch allocates %v objects/step, want 0", allocs)
	}
}

// TestMarshalGolden pins the serialized blob format: registry-persisted
// model versions written by older builds must keep loading, so any change
// to the wire layout has to be a deliberate, versioned one (add a new magic,
// keep decoding this).
func TestMarshalGolden(t *testing.T) {
	n := New(42, 3, 4, 2)
	blob := n.Marshal()
	path := filepath.Join("testdata", "marshal_v1.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("Marshal blob format drifted from committed golden (%d vs %d bytes); "+
			"if the change is deliberate, version the format and update the golden with -update",
			len(blob), len(want))
	}
	// The golden must also round-trip through the current decoder.
	m, err := Unmarshal(want)
	if err != nil {
		t.Fatalf("golden blob no longer decodes: %v", err)
	}
	if !bytes.Equal(m.Marshal(), want) {
		t.Fatal("golden blob round trip is not a fixed point")
	}
}

// FuzzNNUnmarshal is the regression fuzz target for the allocation bomb:
// arbitrary input must never panic or demand absurd allocations, and any
// blob that decodes must be a marshal->unmarshal fixed point and run one
// zero row through ForwardSlab without error.
func FuzzNNUnmarshal(f *testing.F) {
	f.Add(New(1, 4, 2).Marshal())
	f.Add(New(2, 3, 4, 2).Marshal())
	f.Add(bombBlob())
	f.Add(unchainedBlob())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := Unmarshal(data)
		if err != nil {
			return
		}
		blob := net.Marshal()
		if !bytes.Equal(blob, data) {
			t.Fatalf("decoded blob is not a marshal fixed point: %d in, %d out", len(data), len(blob))
		}
		again, err := Unmarshal(blob)
		if err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		if len(again.Layers) != len(net.Layers) {
			t.Fatal("layer count unstable")
		}
		if err := net.ForwardSlab(make([]float32, net.InputSize()), 1, make([]float32, net.OutputSize())); err != nil {
			t.Fatalf("decoded blob does not run: %v", err)
		}
	})
}
