package nn

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestNewShapes(t *testing.T) {
	n := New(1, 31, 256, 2)
	if n.InputSize() != 31 || n.OutputSize() != 2 {
		t.Fatalf("sizes = %d -> %d, want 31 -> 2", n.InputSize(), n.OutputSize())
	}
	got := n.Sizes()
	want := []int{31, 256, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sizes = %v, want %v", got, want)
		}
	}
	if n.Layers[0].Act != ReLU || n.Layers[1].Act != Linear {
		t.Fatal("hidden layer must be ReLU, output Linear")
	}
}

func TestNewDeterministic(t *testing.T) {
	a, b := New(7, 4, 8, 2), New(7, 4, 8, 2)
	for i := range a.Layers[0].W {
		if a.Layers[0].W[i] != b.Layers[0].W[i] {
			t.Fatal("same seed produced different weights")
		}
	}
	c := New(8, 4, 8, 2)
	same := true
	for i := range a.Layers[0].W {
		if a.Layers[0].W[i] != c.Layers[0].W[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical weights")
	}
}

func TestForwardKnownValues(t *testing.T) {
	// Hand-built 2->2->1 network; W is input-major, so output 0's weights
	// are W[0] and W[2].
	n := &Network{Layers: []*Layer{
		{In: 2, Out: 2, W: []float32{1, 0.5, -1, 0.5}, B: []float32{0, -1}, Act: ReLU},
		{In: 2, Out: 1, W: []float32{2, 3}, B: []float32{0.5}, Act: Linear},
	}}
	// x = [3, 1]: h = relu([3-1, 1.5+0.5-1]) = [2, 1]; y = 2*2+3*1+0.5 = 7.5
	got := n.Forward([]float32{3, 1})
	if len(got) != 1 || math.Abs(float64(got[0]-7.5)) > 1e-6 {
		t.Fatalf("Forward = %v, want [7.5]", got)
	}
}

func TestForwardPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong input width")
		}
	}()
	New(1, 4, 2).Forward([]float32{1})
}

func TestFlops(t *testing.T) {
	n := New(1, 31, 256, 2)
	want := 2 * float64(31*256+256*2)
	if got := n.Flops(); got != want {
		t.Fatalf("Flops = %v, want %v", got, want)
	}
}

func TestSoftmax(t *testing.T) {
	p := Softmax([]float32{1000, 1000}) // stability check
	if math.Abs(float64(p[0]-0.5)) > 1e-6 {
		t.Fatalf("Softmax large logits = %v", p)
	}
	p = Softmax([]float32{0, math.MaxFloat32 / 2})
	if p[1] < 0.99 {
		t.Fatalf("Softmax = %v, want ~[0,1]", p)
	}
	var sum float32
	for _, v := range Softmax([]float32{0.3, -1.2, 2.5}) {
		sum += v
	}
	if math.Abs(float64(sum-1)) > 1e-5 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

// Train a small model on a linearly separable task and require high
// accuracy: confirms backprop actually learns.
func TestTrainingLearnsSeparableTask(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := New(1, 2, 16, 2)
	var xs [][]float32
	var labels []int
	for i := 0; i < 400; i++ {
		x := []float32{rng.Float32()*2 - 1, rng.Float32()*2 - 1}
		label := 0
		if x[0]+x[1] > 0 {
			label = 1
		}
		xs = append(xs, x)
		labels = append(labels, label)
	}
	var lastLoss float32
	for epoch := 0; epoch < 200; epoch++ {
		loss, err := n.TrainBatch(xs, labels, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		lastLoss = loss
	}
	if acc := n.Accuracy(xs, labels); acc < 0.95 {
		t.Fatalf("accuracy = %.3f (loss %.4f), want >= 0.95", acc, lastLoss)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	n := New(3, 4, 8, 2)
	xs := [][]float32{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}}
	labels := []int{0, 1, 1, 0}
	first, err := n.TrainBatch(xs, labels, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var last float32
	for i := 0; i < 300; i++ {
		last, _ = n.TrainBatch(xs, labels, 0.1)
	}
	if last >= first {
		t.Fatalf("loss did not decrease: first %v, last %v", first, last)
	}
}

func TestTrainBatchErrors(t *testing.T) {
	n := New(1, 2, 2)
	if _, err := n.TrainBatch([][]float32{{1, 2}}, []int{5}, 0.1); err == nil {
		t.Error("out-of-range label accepted")
	}
	if _, err := n.TrainBatch([][]float32{{1, 2}}, []int{0, 1}, 0.1); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if loss, err := n.TrainBatch(nil, nil, 0.1); err != nil || loss != 0 {
		t.Error("empty batch should be a no-op")
	}
}

func TestAccuracyEmpty(t *testing.T) {
	if got := New(1, 2, 2).Accuracy(nil, nil); got != 0 {
		t.Fatalf("Accuracy(empty) = %v", got)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	n := New(99, 31, 256, 256, 2)
	blob := n.Marshal()
	m, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 31)
	for i := range x {
		x[i] = float32(i) / 31
	}
	a, b := n.Forward(x), m.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output mismatch after round trip: %v vs %v", a, b)
		}
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	good := New(1, 4, 2).Marshal()
	for _, cut := range []int{0, 3, 7, 8, len(good) - 1} {
		if _, err := Unmarshal(good[:cut]); err == nil {
			t.Errorf("truncated blob (%d bytes) accepted", cut)
		}
	}
	bad := append([]byte{}, good...)
	bad[0] ^= 0xFF
	if _, err := Unmarshal(bad); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Unmarshal(append(good, 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
	if _, err := Unmarshal(unchainedBlob()); err != ErrBadModel {
		t.Errorf("unchained layers: err %v, want ErrBadModel", err)
	}
}

// unchainedBlob is a well-formed LNN1 blob of a 2→8 layer and a 4→2 layer,
// which no input can run through.
func unchainedBlob() []byte {
	return (&Network{Layers: []*Layer{New(1, 2, 8).Layers[0], New(2, 4, 2).Layers[0]}}).Marshal()
}

// Property: ForwardSlab agrees with per-sample Forward.
func TestQuickBatchMatchesSingle(t *testing.T) {
	n := New(5, 3, 8, 2)
	f := func(raw [][3]int16) bool {
		in := make([]float32, 0, 3*len(raw))
		for _, r := range raw {
			in = append(in, float32(r[0])/256, float32(r[1])/256, float32(r[2])/256)
		}
		batch := make([]float32, 2*len(raw))
		if err := n.ForwardSlab(in, len(raw), batch); err != nil {
			return false
		}
		for i := range raw {
			single := n.Forward(in[3*i : 3*i+3])
			for j := range single {
				if batch[2*i+j] != single[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax output is a probability distribution for any finite
// logits.
func TestQuickSoftmaxDistribution(t *testing.T) {
	f := func(raw []float32) bool {
		if len(raw) == 0 {
			return true
		}
		logits := make([]float32, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				v = 0
			}
			logits = append(logits, v)
		}
		p := Softmax(logits)
		var sum float64
		for _, v := range p {
			if v < 0 || math.IsNaN(float64(v)) {
				return false
			}
			sum += float64(v)
		}
		return math.Abs(sum-1) < 1e-4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// weight is the weight input k feeds output o. The reference and the tests
// that plant special values reach W only through it, so they state the
// arithmetic by (o, k) and do not depend on the layout W is stored in.
func weight(l *Layer, o, k int) *float32 { return &l.W[k*l.Out+o] }

// forwardRef is the scalar kernel — one dot product per output, each product
// rounded before its add — kept as the differential reference: every output
// of Layer.forward, on either kernel, and of the slab path must carry the
// same bits.
func (n *Network) forwardRef(x []float32) []float32 {
	cur := x
	for _, l := range n.Layers {
		next := make([]float32, l.Out)
		for o := 0; o < l.Out; o++ {
			sum := l.B[o]
			for k := 0; k < l.In; k++ {
				sum += float32(*weight(l, o, k) * cur[k])
			}
			if l.Act == ReLU && sum < 0 {
				sum = 0
			}
			next[o] = sum
		}
		cur = next
	}
	return cur
}

// sameBits compares two logits by bit pattern: -0 is not +0 and there is no
// tolerance. Only NaNs compare equal to each other whatever their sign and
// payload: when both operands of an x86 add or multiply are NaN the result
// takes the first one's, and which operand the compiler places first differs
// between two loops (and between plain, -race and fuzz-instrumented builds
// of one loop), so which NaN survives is register allocation, not
// arithmetic.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// checkForwardPaths runs every row of rows through Forward and all of them
// (cycled up to items) through one ForwardSlab call, and compares each
// logit's bits against forwardRef.
func checkForwardPaths(t *testing.T, n *Network, rows [][]float32, items int) {
	t.Helper()
	inW, outW := n.InputSize(), n.OutputSize()
	ref := make([][]float32, len(rows))
	for r, x := range rows {
		ref[r] = n.forwardRef(x)
		got := n.Forward(x)
		for j := range ref[r] {
			if !sameBits(got[j], ref[r][j]) {
				t.Fatalf("sizes %v row %d: Forward[%d] = %x, scalar reference %x",
					n.Sizes(), r, j, math.Float32bits(got[j]), math.Float32bits(ref[r][j]))
			}
		}
	}
	in := make([]float32, 0, items*inW)
	for i := 0; i < items; i++ {
		in = append(in, rows[i%len(rows)]...)
	}
	out := make([]float32, items*outW)
	if err := n.ForwardSlab(in, items, out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < items; i++ {
		for j, want := range ref[i%len(rows)] {
			if got := out[i*outW+j]; !sameBits(got, want) {
				t.Fatalf("sizes %v items %d: slab item %d logit %d = %x, scalar reference %x",
					n.Sizes(), items, i, j, math.Float32bits(got), math.Float32bits(want))
			}
		}
	}
}

// TestForwardDifferential: Layer.forward and the slab path agree with the
// scalar reference bit for bit, on each kernel, across its output blocks —
// 128-output passes (128, 192, 256) with a 64-output pass after them (192)
// or not, 64-output passes (64, 65) with the 32-output pass after them (96)
// or not, a 32-output pass alone (32, 33, 40, 63), 4-output blocks (4, 7,
// 8, 9, 31, 40, 63) and every tail length (1, 2, 3, 5, 7, 9, 31, 33, 65) —
// depths and slab sizes, on rows whose pre-activations are -0 (which ReLU
// must keep: max() would not), NaN, ±Inf and subnormal, from subnormal
// inputs and weights; an output layer of 12 outputs or more also carries
// NaN and ±Inf weights.
// Slabs of several rows check that rows ping-pong through the scratch
// without leaking into each other; from four rows up a last layer of 1 to
// 4 outputs runs eight rows as lanes (AVX) or four, after a hidden layer as
// wide as 33 or none: slabs of 8, 9, 12, 13 and 17 rows run groups of
// eight, a group of four after them and rows left over alone.
func TestForwardDifferential(t *testing.T) { EachKernel(t, testForwardDifferential) }

func testForwardDifferential(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	subnormal := func(i int) float32 { return math.Float32frombits(uint32(i%2)<<31 | uint32(i+1)*0x10101) }
	var sawNegZero, sawNaN, sawPosInf, sawNegInf, sawSubnormal bool
	for _, in := range []int{1, 9, 31} {
		for _, out := range []int{1, 2, 3, 4, 5, 7, 8, 9, 32, 33, 40, 63, 64, 65, 96, 128, 192, 256} {
			for _, sizes := range [][]int{{in, out}, {in, out, out}, {in, out, 3, out}, {in, 33, out}} {
				// Hidden layers are ReLU already; a ReLU output layer is
				// where a kept -0 shows in the logits.
				acts := []Activation{Linear}
				if len(sizes) == 2 {
					acts = append(acts, ReLU)
				}
				for _, outAct := range acts {
					n := New(int64(in*1000+out), sizes...)
					n.Layers[len(n.Layers)-1].Act = outAct
					for _, l := range n.Layers {
						for j := range l.B {
							l.B[j] = float32(j%7-3) / 8
						}
						// Row 0 sums -0 + 0*x, which is -0 when every x is
						// negative. Rows 1 and 2 overflow to +Inf and -Inf on
						// the all-3 input; the next layer's zero row turns
						// those into NaN. Outputs 3 to 7 keep random weights,
						// so every 4-output block and lane head still checks
						// ordinary rounding; on a layer of 12 outputs or more,
						// row 8, biased +0, sums its first and last products,
						// subnormal, into a subnormal. (Only a few k carry
						// subnormals: each costs a microcode assist.)
						l.B[0] = negZero
						if l.Out >= 12 {
							l.B[8] = 0
						}
						for k := 0; k < l.In; k++ {
							*weight(l, 0, k) = 0
							if l.Out > 2 {
								*weight(l, 1, k) = 3e38
								*weight(l, 2, k) = -3e38
							}
							if l.Out >= 12 {
								*weight(l, 8, k) = 0
								if k == 0 || k == l.In-1 {
									*weight(l, 8, k) = subnormal(k)
								}
							}
						}
					}
					// A NaN or infinite weight poisons its output on every
					// row, so only the output layer carries them, one k each,
					// on outputs 9 to 11.
					if l := n.Layers[len(n.Layers)-1]; l.Out >= 12 {
						*weight(l, 9, 0) = inf
						*weight(l, 10, l.In-1) = -inf
						*weight(l, 11, l.In/2) = float32(math.NaN())
					}
					rng := rand.New(rand.NewSource(int64(in + out)))
					rows := make([][]float32, 8)
					for r := range rows {
						rows[r] = make([]float32, in)
						for k := range rows[r] {
							rows[r][k] = rng.Float32()*4 - 2
							switch r {
							case 1:
								rows[r][k] = -1
							case 2:
								rows[r][k] = 3
							}
						}
					}
					rows[3][0], rows[4][0], rows[5][0], rows[6][0] = negZero, inf, -inf, float32(math.NaN())
					rows[7][0], rows[7][in-1] = subnormal(1), subnormal(2)
					for _, x := range rows {
						for _, y := range n.forwardRef(x) {
							sawNegZero = sawNegZero || math.Float32bits(y) == math.Float32bits(negZero)
							sawNaN = sawNaN || y != y
							sawPosInf = sawPosInf || y == inf
							sawNegInf = sawNegInf || y == -inf
							sawSubnormal = sawSubnormal || y != 0 && math.Abs(float64(y)) < 0x1p-126
						}
					}
					for _, items := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 17, 1023, 1024} {
						checkForwardPaths(t, n, rows, items)
					}
				}
			}
		}
	}
	if !sawNegZero || !sawNaN || !sawPosInf || !sawNegInf || !sawSubnormal {
		t.Fatalf("special values not exercised: -0 %v NaN %v +Inf %v -Inf %v subnormal %v",
			sawNegZero, sawNaN, sawPosInf, sawNegInf, sawSubnormal)
	}
}

// ForwardSlab rejects slabs that do not hold items whole rows.
func TestForwardSlabShape(t *testing.T) {
	n := New(1, 4, 8, 2)
	for _, tc := range []struct{ in, items, out int }{{8, 1, 2}, {4, 1, 4}, {4, 2, 4}, {0, -1, 0}} {
		if err := n.ForwardSlab(make([]float32, tc.in), tc.items, make([]float32, tc.out)); err == nil {
			t.Errorf("slab in=%d items=%d out=%d accepted", tc.in, tc.items, tc.out)
		}
	}
	if err := n.ForwardSlab(nil, 0, nil); err != nil {
		t.Errorf("empty slab: %v", err)
	}
	// A hand-built network whose slices do not match its shape is rejected,
	// for one item and for several, before the kernel reads past a slice.
	for _, tc := range []struct {
		name   string
		mutate func(*Network)
	}{
		{"short W", func(n *Network) { n.Layers[0].W = n.Layers[0].W[:31] }},
		{"long W", func(n *Network) { n.Layers[1].W = append(n.Layers[1].W, 0) }},
		{"short B", func(n *Network) { n.Layers[1].B = n.Layers[1].B[:1] }},
		{"unchained", func(n *Network) { n.Layers[1] = &Layer{In: 4, Out: 2, W: make([]float32, 8), B: make([]float32, 2)} }},
		{"nil layer", func(n *Network) { n.Layers[1] = nil }},
		{"no layers", func(n *Network) { n.Layers = nil }},
	} {
		for _, items := range []int{1, 4} {
			n := New(1, 4, 8, 2)
			tc.mutate(n)
			if err := n.ForwardSlab(make([]float32, items*4), items, make([]float32, items*2)); err == nil {
				t.Errorf("%s: slab of %d items accepted", tc.name, items)
			}
		}
	}
	// In*Out wraps to 0 here, and so does a four-row slab of In inputs: only
	// the layer check stands between this layer and a read of In floats a row.
	huge := &Network{Layers: []*Layer{{In: 1 << (bits.UintSize - 2), Out: 4, B: make([]float32, 4)}}}
	for _, items := range []int{1, 4} {
		if err := huge.ForwardSlab(nil, items, make([]float32, items*4)); err == nil {
			t.Errorf("In*Out overflow: slab of %d items accepted", items)
		}
	}
}

// The slab path allocates nothing for a network no wider than
// slabStackWidth, for one row and for many.
func TestForwardSlabNoGarbage(t *testing.T) {
	n := New(1, 31, 256, 2)
	for _, items := range []int{1, 4, 64} {
		in, out := make([]float32, items*31), make([]float32, items*2)
		run := func() {
			if err := n.ForwardSlab(in, items, out); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if got := testing.AllocsPerRun(50, run); got != 0 {
			t.Fatalf("ForwardSlab of %d items allocates %v objects/op, want 0", items, got)
		}
	}
}

// TestForwardSlabNoGarbage again, with two collections inside every measured
// call: the activations live on the stack, which a GC cycle leaves alone,
// where scratch on a sync.Pool would be dropped (the second cycle clears
// its victim cache too).
func TestForwardSlabNoGarbageAcrossGC(t *testing.T) {
	n := New(1, 31, 256, 2)
	in, out := make([]float32, 4*31), make([]float32, 4*2)
	run := func() {
		runtime.GC()
		runtime.GC()
		if err := n.ForwardSlab(in, 4, out); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if got := testing.AllocsPerRun(20, run); got != 0 {
		t.Fatalf("ForwardSlab across GC cycles allocates %v objects/op, want 0", got)
	}
}

// A network wider than slabStackWidth takes its activations from the heap
// and still gives, row by row, the logits of the Scratch path: with a last
// layer too wide for the four-row array, and with one that runs four rows
// as lanes behind a wide input layer.
func TestForwardSlabWiderThanStack(t *testing.T) {
	for _, sizes := range [][]int{{7, slabStackWidth + 9, 3}, {slabStackWidth + 9, 7, 3}} {
		n := New(2, sizes...)
		const items = 5
		inW := sizes[0]
		in, out := make([]float32, items*inW), make([]float32, items*3)
		for i := range in {
			in[i] = float32(i%5) - 1.5
		}
		if err := n.ForwardSlab(in, items, out); err != nil {
			t.Fatal(err)
		}
		s := NewScratch(n)
		for i := 0; i < items; i++ {
			want := n.forwardScratch(s, in[i*inW:(i+1)*inW])
			for j, w := range want {
				if math.Float32bits(out[i*3+j]) != math.Float32bits(w) {
					t.Fatalf("sizes %v row %d logit %d = %v, want %v", sizes, i, j, out[i*3+j], w)
				}
			}
		}
	}
}

// FuzzForwardDifferential: for any weights, biases and inputs — arbitrary
// float32 bit patterns, so NaNs, infinities, denormals and signed zeros
// included — and any small geometry, Layer.forward and the slab path
// produce the scalar reference's bits. Up to 256 outputs a layer reaches the
// kernel's 128-output pass with a 64-output pass after it or not, its
// 64-output pass, its 32-output pass after one or alone, its 4-output
// blocks and every tail length; up to 19 rows a slab, a
// last layer of 1 to 4 outputs runs groups of eight rows as lanes, a group
// of four after them and the rows left alone.
func FuzzForwardDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0xc0, 0xcd, 0xcc, 0x4c, 0x3e}, uint8(3), uint8(5), uint8(2), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, in, out, layers, items uint8) {
		if len(data) < 4 {
			return
		}
		pos := 0
		next := func() float32 {
			if pos+4 > len(data) {
				pos = 0
			}
			v := math.Float32frombits(binary.LittleEndian.Uint32(data[pos:]))
			pos += 4
			return v
		}
		sizes := []int{int(in%32) + 1}
		for i := 0; i < int(layers%3); i++ {
			sizes = append(sizes, int(out)+1)
		}
		sizes = append(sizes, int(out)+1)
		n := New(1, sizes...)
		for _, l := range n.Layers {
			for j := range l.W {
				l.W[j] = next()
			}
			for j := range l.B {
				l.B[j] = next()
			}
		}
		rows := make([][]float32, 3)
		for r := range rows {
			rows[r] = make([]float32, sizes[0])
			for k := range rows[r] {
				rows[r][k] = next()
			}
		}
		checkForwardPaths(t, n, rows, int(items%19)+1)
	})
}

// relu is the branch `if s < 0 { s = 0 }` on every bit pattern either side
// of its two boundaries, -0 and -Inf, and on a stride across the rest. So
// is ForwardSlab's ReLU on either kernel: a zero-input layer's outputs are
// its biases, so a ReLU layer biased with the patterns returns their ReLU.
func TestReLUBits(t *testing.T) {
	patterns := []uint32{0, 1, 0x7F7FFFFF, 0x7F800000, 0x7F800001, 0x7FC00000, 0x7FFFFFFF,
		0x80000000, 0x80000001, 0x807FFFFF, 0xBF800000, 0xFF7FFFFF, 0xFF800000, 0xFF800001, 0xFFC00000, 0xFFFFFFFF}
	for b := uint64(0); b <= math.MaxUint32; b += 65521 {
		patterns = append(patterns, uint32(b))
	}
	want := func(b uint32) uint32 {
		if s := math.Float32frombits(b); s < 0 {
			return 0
		}
		return b
	}
	for _, b := range patterns {
		if got := math.Float32bits(relu(math.Float32frombits(b))); got != want(b) {
			t.Fatalf("relu(%#08x) = %#08x, want %#08x", b, got, want(b))
		}
	}
	l := &Layer{Out: len(patterns), B: make([]float32, len(patterns)), Act: ReLU}
	for j, b := range patterns {
		l.B[j] = math.Float32frombits(b)
	}
	n := &Network{Layers: []*Layer{l}}
	EachKernel(t, func(t *testing.T) {
		for _, items := range []int{1, 4} {
			out := make([]float32, items*len(patterns))
			if err := n.ForwardSlab(nil, items, out); err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				if b := patterns[i%len(patterns)]; math.Float32bits(v) != want(b) {
					t.Fatalf("ForwardSlab of %d items: ReLU(%#08x) = %#08x, want %#08x", items, b, math.Float32bits(v), want(b))
				}
			}
		}
	})
}

// PredictScratch is Predict without the garbage, and a scratch shaped for
// another architecture degrades to Predict instead of mis-indexing.
func TestPredictScratch(t *testing.T) {
	n, other := New(3, 4, 8, 3), New(4, 4, 5, 3)
	s := NewScratch(n)
	rng := rand.New(rand.NewSource(9))
	x := make([]float32, 4)
	for i := 0; i < 50; i++ {
		for k := range x {
			x[k] = rng.Float32()*2 - 1
		}
		if got, want := n.PredictScratch(s, x), n.Predict(x); got != want {
			t.Fatalf("PredictScratch = %d, Predict = %d", got, want)
		}
		if got, want := other.PredictScratch(s, x), other.Predict(x); got != want {
			t.Fatalf("mismatched scratch: PredictScratch = %d, Predict = %d", got, want)
		}
	}
	if got := testing.AllocsPerRun(100, func() { n.PredictScratch(s, x) }); got != 0 {
		t.Fatalf("PredictScratch allocates %v objects/op, want 0", got)
	}
}
