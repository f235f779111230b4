package nn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// seqOf lays timesteps end to end into one sequence.
func seqOf(steps ...[]float32) []float32 {
	var seq []float32
	for _, x := range steps {
		seq = append(seq, x...)
	}
	return seq
}

func TestLSTMNewShapes(t *testing.T) {
	m := NewLSTM(1, 8, []int{16, 16}, 2)
	if m.InputSize() != 8 {
		t.Fatalf("InputSize = %d, want 8", m.InputSize())
	}
	if len(m.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(m.Cells))
	}
	if c := m.Cells[1]; c.In != 16+16 || c.Out != 4*16 || c.Act != Linear {
		t.Fatalf("second cell is %dx%d act %d, want [x;h] 32 -> 64 gates, linear", c.In, c.Out, c.Act)
	}
	if len(m.Head.W) != 2*16 || m.Head.Out != 2 {
		t.Fatalf("head weights = %d, want 32", len(m.Head.W))
	}
}

func TestLSTMForgetGateBiasInit(t *testing.T) {
	m := NewLSTM(1, 4, []int{8}, 2)
	c := m.Cells[0]
	for i := 8; i < 16; i++ {
		if c.B[i] != 1 {
			t.Fatalf("forget bias[%d] = %v, want 1", i, c.B[i])
		}
	}
	if c.B[0] != 0 {
		t.Fatalf("input-gate bias = %v, want 0", c.B[0])
	}
}

func TestLSTMDeterministicInit(t *testing.T) {
	a, b := NewLSTM(5, 4, []int{8}, 2), NewLSTM(5, 4, []int{8}, 2)
	for i := range a.Cells[0].W {
		if a.Cells[0].W[i] != b.Cells[0].W[i] {
			t.Fatal("same seed produced different weights")
		}
	}
}

func TestLSTMForwardDeterministicAndBounded(t *testing.T) {
	m := NewLSTM(2, 4, []int{8, 8}, 2)
	seq := seqOf([]float32{1, 0, -1, 0.5}, []float32{0.2, 0.4, 0.6, 0.8}, []float32{0, 0, 0, 0})
	a := m.Forward(seq)
	b := m.Forward(seq)
	if len(a) != 2 {
		t.Fatalf("logits = %d, want 2", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Forward not deterministic")
		}
		if math.IsNaN(float64(a[i])) || math.IsInf(float64(a[i]), 0) {
			t.Fatalf("logit %d = %v", i, a[i])
		}
	}
}

func TestLSTMStateCarriesAcrossTimesteps(t *testing.T) {
	m := NewLSTM(3, 2, []int{8}, 2)
	x := []float32{1, -1}
	short := m.Forward(x)
	long := m.Forward(seqOf(x, x, x, x))
	same := true
	for i := range short {
		if short[i] != long[i] {
			same = false
		}
	}
	if same {
		t.Fatal("longer sequence produced identical logits: no recurrence")
	}
}

func TestLSTMHiddenStateIsBounded(t *testing.T) {
	// h = o * tanh(c) is bounded in (-1, 1) regardless of input magnitude.
	m := NewLSTM(4, 2, []int{6}, 2)
	c := m.Cells[0]
	xh, cs, act := make([]float32, c.In), make([]float32, 6), make([]float32, c.Out)
	for step := 0; step < 50; step++ {
		copy(xh, []float32{1000, -1000})
		lstmStep(c, xh, cs, act, cs, xh[2:])
		for _, v := range xh[2:] {
			// Saturation can hit exactly ±1 in float32.
			if v < -1 || v > 1 {
				t.Fatalf("hidden state %v escaped [-1,1]", v)
			}
		}
	}
}

func TestLSTMForwardPanics(t *testing.T) {
	m := NewLSTM(1, 4, []int{8}, 2)
	for name, fn := range map[string]func(){
		"empty sequence": func() { m.Forward(nil) },
		"bad width":      func() { m.Forward([]float32{1}) },
		"partial step":   func() { m.Forward(make([]float32, 6)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestLSTMPredictReturnsValidClass(t *testing.T) {
	m := NewLSTM(9, 4, []int{8}, 3)
	got := m.Predict([]float32{0.1, 0.2, 0.3, 0.4})
	if got < 0 || got >= 3 {
		t.Fatalf("Predict = %d, want in [0,3)", got)
	}
}

func TestLSTMFlops(t *testing.T) {
	m := NewLSTM(1, 4, []int{8}, 2)
	// Per step: 2*(4*8*4 + 4*8*8) = 2*(128+256) = 768; head: 2*2*8 = 32.
	if got := m.Flops(1); got != 768+32 {
		t.Fatalf("Flops(1) = %v, want %v", got, 768+32)
	}
	if got := m.Flops(10); got != 768*10+32 {
		t.Fatalf("Flops(10) = %v, want %v", got, 768*10+32)
	}
}

// Property: logits stay finite for any bounded input sequence.
func TestLSTMQuickForwardFinite(t *testing.T) {
	m := NewLSTM(11, 3, []int{8}, 2)
	f := func(raw [][3]int8) bool {
		if len(raw) == 0 {
			return true
		}
		var seq []float32
		for _, r := range raw {
			seq = append(seq, float32(r[0])/32, float32(r[1])/32, float32(r[2])/32)
		}
		for _, v := range m.Forward(seq) {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// lstmLoss is the summed cross-entropy of seqs, with no update.
func lstmLoss(m *LSTM, seqs [][]float32, labels []int) float64 {
	var loss float64
	for s, seq := range seqs {
		loss += crossEntropy(m.Forward(seq), labels[s], make([]float32, m.Head.Out))
	}
	return loss
}

// Numerical gradient check: the BPTT gradients must match central finite
// differences on a tiny model. This is the canonical correctness test for
// a hand-written backward pass.
func TestLSTMGradientCheck(t *testing.T) {
	m := NewLSTM(3, 2, []int{3, 3}, 2)
	seqs := [][]float32{{0.5, -0.3, 0.1, 0.9, -0.7, 0.2}, {-0.2, 0.4, 0.8, -0.6}}
	labels := []int{0, 1}

	// Analytic gradients: the cells', then the head's.
	layers := append(m.Cells[:len(m.Cells):len(m.Cells)], m.Head)
	gW, gB := make([][]float32, len(layers)), make([][]float32, len(layers))
	for i, l := range layers {
		gW[i], gB[i] = make([]float32, len(l.W)), make([]float32, len(l.B))
	}
	for s, seq := range seqs {
		m.backprop(seq, labels[s], gW, gB)
	}

	// Parameters to probe: a sample from every tensor — each cell's input
	// and recurrent weights, by their (gate, input) index, and its biases,
	// then the head's weights and biases.
	type param struct {
		name string
		w    []float32
		grad []float32
		idx  int
	}
	rng := rand.New(rand.NewSource(4))
	var params []param
	for l, c := range m.Cells {
		hs := c.Out / 4
		nx := c.In - hs
		x, h := rng.Intn(c.Out*nx), rng.Intn(c.Out*hs)
		x, h = (x%nx)*c.Out+x/nx, (nx+h%hs)*c.Out+h/hs
		params = append(params,
			param{"wx", c.W, gW[l], x},
			param{"wh", c.W, gW[l], h},
			param{"b", c.B, gB[l], rng.Intn(len(c.B))},
		)
	}
	nl, hw := len(m.Cells), rng.Intn(len(m.Head.W))
	params = append(params,
		param{"headW", m.Head.W, gW[nl], (hw%m.Head.In)*m.Head.Out + hw/m.Head.In},
		param{"headB", m.Head.B, gB[nl], rng.Intn(len(m.Head.B))},
	)

	const eps = 1e-2
	for _, p := range params {
		orig := p.w[p.idx]
		p.w[p.idx] = orig + eps
		lossPlus := lstmLoss(m, seqs, labels)
		p.w[p.idx] = orig - eps
		lossMinus := lstmLoss(m, seqs, labels)
		p.w[p.idx] = orig
		numeric := (lossPlus - lossMinus) / (2 * eps)
		analytic := float64(p.grad[p.idx])
		denom := math.Max(math.Abs(numeric)+math.Abs(analytic), 1e-4)
		rel := math.Abs(numeric-analytic) / denom
		if rel > 0.05 {
			t.Errorf("%s[%d]: analytic %.6f vs numeric %.6f (rel %.3f)",
				p.name, p.idx, analytic, numeric, rel)
		}
	}
}

func TestLSTMTrainBatchValidation(t *testing.T) {
	m := NewLSTM(1, 2, []int{4}, 2)
	if _, err := m.TrainBatch([][]float32{{1, 2}}, []int{5}, 0.1); err == nil {
		t.Fatal("bad label accepted")
	}
	if _, err := m.TrainBatch([][]float32{{1, 2}}, []int{0, 1}, 0.1); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := m.TrainBatch([][]float32{{}}, []int{0}, 0.1); err == nil {
		t.Fatal("empty sequence accepted")
	}
	if _, err := m.TrainBatch([][]float32{{1, 2, 3}}, []int{0}, 0.1); err == nil {
		t.Fatal("partial step accepted")
	}
	if loss, err := m.TrainBatch(nil, nil, 0.1); err != nil || loss != 0 {
		t.Fatal("empty batch should be a no-op")
	}
}

// The LSTM must learn a temporal task an order-free model cannot: classify
// whether a sequence is rising or falling (same value multiset, different
// order).
func TestLSTMLearnsTemporalOrder(t *testing.T) {
	m := NewLSTM(7, 1, []int{12}, 2)
	rng := rand.New(rand.NewSource(7))
	mkSeq := func(rising bool) []float32 {
		base := rng.Float32() * 0.3
		step := 0.1 + rng.Float32()*0.1
		seq := make([]float32, 6)
		for i := range seq {
			v := base + float32(i)*step
			if !rising {
				v = base + float32(len(seq)-1-i)*step
			}
			seq[i] = v
		}
		return seq
	}
	var seqs [][]float32
	var labels []int
	for i := 0; i < 200; i++ {
		rising := i%2 == 0
		seqs = append(seqs, mkSeq(rising))
		label := 0
		if rising {
			label = 1
		}
		labels = append(labels, label)
	}
	var loss float32
	var err error
	for epoch := 0; epoch < 150; epoch++ {
		if loss, err = m.TrainBatch(seqs, labels, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	if acc := m.Accuracy(seqs, labels); acc < 0.95 {
		t.Fatalf("accuracy = %.3f (loss %.4f), want >= 0.95 on rising/falling", acc, loss)
	}
	// Held-out generalization.
	var testSeqs [][]float32
	var testLabels []int
	for i := 0; i < 50; i++ {
		rising := i%2 == 0
		testSeqs = append(testSeqs, mkSeq(rising))
		if rising {
			testLabels = append(testLabels, 1)
		} else {
			testLabels = append(testLabels, 0)
		}
	}
	if acc := m.Accuracy(testSeqs, testLabels); acc < 0.9 {
		t.Fatalf("held-out accuracy = %.3f, want >= 0.9", acc)
	}
}

func TestLSTMTrainingReducesLoss(t *testing.T) {
	m := NewLSTM(11, 2, []int{8, 8}, 3)
	rng := rand.New(rand.NewSource(11))
	var seqs [][]float32
	var labels []int
	for i := 0; i < 60; i++ {
		label := i % 3
		seq := make([]float32, 0, 10)
		for tt := 0; tt < 5; tt++ {
			seq = append(seq, float32(label)+rng.Float32()*0.3, rng.Float32())
		}
		seqs = append(seqs, seq)
		labels = append(labels, label)
	}
	first := lstmLoss(m, seqs, labels)
	for epoch := 0; epoch < 60; epoch++ {
		if _, err := m.TrainBatch(seqs, labels, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	last := lstmLoss(m, seqs, labels)
	if last >= first/2 {
		t.Fatalf("loss %f -> %f: did not halve", first, last)
	}
}

func TestLSTMAccuracyEmpty(t *testing.T) {
	if got := NewLSTM(1, 1, []int{2}, 2).Accuracy(nil, nil); got != 0 {
		t.Fatalf("Accuracy(empty) = %v", got)
	}
}

// refCell is a cell in the layout the LSTM had before its gates became a
// Layer: Wx is [4*hidden x in] and Wh [4*hidden x hidden], output-major.
type refCell struct {
	in, hidden int
	wx, wh, b  []float32
}

func refCellOf(c *Layer) refCell {
	hs := c.Out / 4
	r := refCell{in: c.In - hs, hidden: hs, b: c.B}
	for g := 0; g < c.Out; g++ {
		for k := 0; k < c.In; k++ {
			if k < r.in {
				r.wx = append(r.wx, *weight(c, g, k))
			} else {
				r.wh = append(r.wh, *weight(c, g, k))
			}
		}
	}
	return r
}

// step is the scalar cell step — two dot products per gate, each product
// rounded before its add — kept as the differential reference for the gate
// Layer and lstmStep. h and cs are updated in place.
func (c refCell) step(x, h, cs []float32) {
	hsz := c.hidden
	gates := make([]float32, 4*hsz)
	for g := 0; g < 4*hsz; g++ {
		sum := c.b[g]
		for i, w := range c.wx[g*c.in : (g+1)*c.in] {
			sum += float32(w * x[i])
		}
		for i, w := range c.wh[g*hsz : (g+1)*hsz] {
			sum += float32(w * h[i])
		}
		gates[g] = sum
	}
	for j := 0; j < hsz; j++ {
		in := sigmoid(gates[j])
		forget := sigmoid(gates[hsz+j])
		cand := tanh32(gates[2*hsz+j])
		out := sigmoid(gates[3*hsz+j])
		cs[j] = float32(forget*cs[j]) + float32(in*cand)
		h[j] = out * tanh32(cs[j])
	}
}

// FuzzLSTMDifferential: for any shape and seed, and any inputs — arbitrary
// float32 bit patterns, so NaNs, infinities and signed zeros included —
// every step's hidden and cell state of a recorded pass, and the logits of
// Forward and of the recorded pass, carry the scalar reference's bits. Up to
// 40 hidden units a cell's 4*hidden gates reach the dense kernel's 32-output
// pass, its 4-output blocks and (with a wider head) its tails.
func FuzzLSTMDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0x80, 0, 0, 0x80, 0x7f, 0xcd, 0xcc, 0x4c, 0xbe}, int64(1), uint8(1), uint8(31), uint8(1), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, seed int64, in, hidden, cells, steps uint8) {
		if len(data) < 4 {
			return
		}
		hs := make([]int, int(cells%2)+1)
		for l := range hs {
			hs[l] = int(hidden%40) + 1
		}
		m := NewLSTM(seed, int(in%8)+1, hs, int(cells/2%7)+1)
		nx := m.InputSize()
		seq := make([]float32, (int(steps%6)+1)*nx)
		for i := range seq {
			p := 4 * i % (len(data) &^ 3)
			seq[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[p:]))
		}
		st := m.newRows(len(seq)/nx + 1)
		recorded := make([]float32, m.Head.Out)
		m.run(seq, st, true, recorded)

		refH, refC := make([][]float32, len(m.Cells)), make([][]float32, len(m.Cells))
		for l, c := range m.Cells {
			refH[l], refC[l] = make([]float32, c.Out/4), make([]float32, c.Out/4)
		}
		for tt := 0; tt < len(seq)/nx; tt++ {
			cur := seq[tt*nx : (tt+1)*nx]
			for l, c := range m.Cells {
				refCellOf(c).step(cur, refH[l], refC[l])
				cur = refH[l]
				xw, w := c.In, c.Out/4
				gotH, gotC := st[l].xh[(tt+2)*xw-w:(tt+2)*xw], st[l].c[(tt+1)*w:(tt+2)*w]
				for j := range cur {
					if !sameBits(gotH[j], refH[l][j]) || !sameBits(gotC[j], refC[l][j]) {
						t.Fatalf("step %d cell %d unit %d: h %x c %x, scalar reference h %x c %x", tt, l, j,
							math.Float32bits(gotH[j]), math.Float32bits(gotC[j]),
							math.Float32bits(refH[l][j]), math.Float32bits(refC[l][j]))
					}
				}
			}
		}
		want := (&Network{Layers: []*Layer{m.Head}}).forwardRef(refH[len(m.Cells)-1])
		for k, got := range m.Forward(seq) {
			if !sameBits(got, want[k]) || !sameBits(recorded[k], want[k]) {
				t.Fatalf("logit %d: Forward %x, recorded pass %x, scalar reference %x", k,
					math.Float32bits(got), math.Float32bits(recorded[k]), math.Float32bits(want[k]))
			}
		}
	})
}
