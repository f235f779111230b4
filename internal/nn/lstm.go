package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// LSTM is the stacked LSTM behind Kleio's page warmth classifier (§7.2:
// "Kleio ... implements a LSTM-based classifier", a model "with two LSTM
// layers" built in TensorFlow in the original): standard cells — input,
// forget and output gates and a candidate update, sigmoid/tanh, carried cell
// and hidden state — then a dense head on the last step's top hidden state.
// Each cell is one Linear Layer over [x; h] whose 4*hidden outputs are the
// input, forget, candidate and output gates' pre-activations, so every gate
// sum and every logit runs the dense kernel.
type LSTM struct {
	Cells []*Layer
	Head  *Layer
}

// NewLSTM builds an LSTM with deterministic random initialization: input
// width, per-cell hidden sizes and the number of classes. Kleio's page
// warmth model is NewLSTM(seed, 1, []int{h, h}, 2).
func NewLSTM(seed int64, in int, hidden []int, classes int) *LSTM {
	if in <= 0 || len(hidden) == 0 || classes <= 0 {
		panic(fmt.Sprintf("nn: invalid LSTM shape in=%d hidden=%v classes=%d", in, hidden, classes))
	}
	rng := rand.New(rand.NewSource(seed))
	// fill draws the weights inputs [k0, k1) feed, output by output.
	fill := func(l *Layer, k0, k1 int) {
		scale := float32(1 / math.Sqrt(float64(k1-k0)))
		for o := 0; o < l.Out; o++ {
			for k := k0; k < k1; k++ {
				l.W[k*l.Out+o] = float32(rng.NormFloat64()) * scale
			}
		}
	}
	m := &LSTM{}
	prev := in
	for _, h := range hidden {
		if h <= 0 {
			panic("nn: LSTM hidden size must be positive")
		}
		c := newLayer(prev+h, 4*h, Linear)
		fill(c, 0, prev)
		fill(c, prev, prev+h)
		// Forget-gate bias starts at 1, the standard trick for gradient flow.
		for o := h; o < 2*h; o++ {
			c.B[o] = 1
		}
		m.Cells = append(m.Cells, c)
		prev = h
	}
	m.Head = newLayer(prev, classes, Linear)
	fill(m.Head, 0, prev)
	return m
}

// InputSize returns the per-step input width.
func (m *LSTM) InputSize() int { return m.Cells[0].In - m.Cells[0].Out/4 }

func sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

func tanh32(x float32) float32 {
	return float32(math.Tanh(float64(x)))
}

// lstmRows is one cell's storage for a pass over a sequence. Row t of xh is
// [x_t; h_{t-1}] and row t of c is c_{t-1}, so step t writes h_t and c_t into
// row t+1; row t of act holds step t's gate activations. A recorded pass
// keeps every row for the backward pass; Forward keeps one row, which each
// step rewrites in place.
type lstmRows struct{ xh, c, act []float32 }

// newRows returns rows rows of every cell's storage, zeroed, in one buffer.
func (m *LSTM) newRows(rows int) []lstmRows {
	n := 0
	for _, c := range m.Cells {
		n += rows * (c.In + c.Out/4 + c.Out)
	}
	buf := make([]float32, n)
	st := make([]lstmRows, len(m.Cells))
	for l, c := range m.Cells {
		xh, cs := rows*c.In, rows*(c.In+c.Out/4)
		st[l] = lstmRows{buf[:xh], buf[xh:cs], buf[cs : cs+rows*c.Out]}
		buf = buf[cs+rows*c.Out:]
	}
	return st
}

// lstmStep runs cell c one timestep on xh = [x; h_{t-1}] and cPrev: the gate
// pre-activations through the dense kernel into act, activated in place,
// then c_t into cNext and h_t into h. cNext may be cPrev and h may be xh's
// tail: each is written after its last read. Each product is rounded before
// its add, so no platform fuses them.
func lstmStep(c *Layer, xh, cPrev, act, cNext, h []float32) {
	c.forward(xh, act)
	hs := len(h)
	i, f, g, o := act[:hs], act[hs:2*hs], act[2*hs:3*hs], act[3*hs:4*hs]
	for j := range h {
		i[j], f[j], g[j], o[j] = sigmoid(i[j]), sigmoid(f[j]), tanh32(g[j]), sigmoid(o[j])
		cNext[j] = float32(f[j]*cPrev[j]) + float32(i[j]*g[j])
		h[j] = o[j] * tanh32(cNext[j])
	}
}

// run passes seq through the cells, step by step, and the last step's top
// hidden state through the head into logits. Recording, step t reads row t
// and writes row t+1 of st, which holds a row per step and one more;
// otherwise every step works in row 0.
func (m *LSTM) run(seq []float32, st []lstmRows, record bool, logits []float32) {
	in := m.InputSize()
	var h []float32
	for r := 0; len(seq) > 0; seq = seq[in:] {
		x, next := seq[:in], r
		if record {
			next++
		}
		for l, c := range m.Cells {
			s, xw, hs := st[l], c.In, c.Out/4
			xh := s.xh[r*xw : (r+1)*xw]
			copy(xh, x)
			h = s.xh[(next+1)*xw-hs : (next+1)*xw]
			lstmStep(c, xh, s.c[r*hs:(r+1)*hs], s.act[r*c.Out:(r+1)*c.Out], s.c[next*hs:(next+1)*hs], h)
			x = h
		}
		r = next
	}
	m.Head.forward(h, logits)
}

// seqErr rejects a sequence that is empty or not whole steps.
func (m *LSTM) seqErr(seq []float32) error {
	if in := m.InputSize(); len(seq) == 0 || len(seq)%in != 0 {
		return fmt.Errorf("nn: LSTM sequence of %d floats is not whole steps of %d", len(seq), in)
	}
	return nil
}

// Forward runs the model over seq, its steps' input rows laid end to end,
// and returns the class logits of the last step. It panics on a sequence
// that is empty or not whole steps.
func (m *LSTM) Forward(seq []float32) []float32 {
	if err := m.seqErr(seq); err != nil {
		panic(err)
	}
	logits := make([]float32, m.Head.Out)
	m.run(seq, m.newRows(1), false, logits)
	return logits
}

// Predict returns the argmax class for a sequence.
func (m *LSTM) Predict(seq []float32) int { return Argmax(m.Forward(seq)) }

// Accuracy evaluates classification accuracy over a labeled set.
func (m *LSTM) Accuracy(seqs [][]float32, labels []int) float64 {
	return accuracy(seqs, labels, m.Predict)
}

// Flops returns the multiply-accumulate FLOPs (2 per weight) of a pass over
// steps timesteps and the head, the quantity the GPU model converts to time.
func (m *LSTM) Flops(steps int) float64 {
	var f float64
	for _, c := range m.Cells {
		f += 2 * float64(len(c.W))
	}
	return f*float64(steps) + 2*float64(len(m.Head.W))
}

// TrainBatch performs one SGD step over (sequence, label) examples with full
// backpropagation through time and returns the mean loss.
func (m *LSTM) TrainBatch(seqs [][]float32, labels []int, lr float32) (float32, error) {
	if len(seqs) != len(labels) {
		return 0, fmt.Errorf("nn: %d sequences but %d labels", len(seqs), len(labels))
	}
	if len(seqs) == 0 {
		return 0, nil
	}
	layers := append(m.Cells[:len(m.Cells):len(m.Cells)], m.Head)
	gW, gB := make([][]float32, len(layers)), make([][]float32, len(layers))
	for i, l := range layers {
		gW[i], gB[i] = make([]float32, len(l.W)), make([]float32, len(l.B))
	}
	var loss float64
	for s, seq := range seqs {
		if labels[s] < 0 || labels[s] >= m.Head.Out {
			return 0, fmt.Errorf("nn: label %d out of range [0,%d)", labels[s], m.Head.Out)
		}
		if err := m.seqErr(seq); err != nil {
			return 0, err
		}
		loss += m.backprop(seq, labels[s], gW, gB)
	}
	scale := lr / float32(len(seqs))
	for i, l := range layers {
		clip(gW[i])
		clip(gB[i])
		l.sgd(gW[i], gB[i], scale)
	}
	return float32(loss / float64(len(seqs))), nil
}

// clip bounds each gradient to ±5, which keeps BPTT stable on long
// sequences.
func clip(g []float32) {
	for j, v := range g {
		if v > 5 {
			g[j] = 5
		} else if v < -5 {
			g[j] = -5
		}
	}
}

// backprop runs seq forward, recording every step, then backpropagates
// through time: it adds the example's gradients into gW and gB (the cells'
// in order, then the head's) and returns its loss.
func (m *LSTM) backprop(seq []float32, label int, gW, gB [][]float32) float64 {
	steps, nl := len(seq)/m.InputSize(), len(m.Cells)
	st := m.newRows(steps + 1)
	delta := make([]float32, m.Head.Out)
	m.run(seq, st, true, delta)
	loss := crossEntropy(delta, label, delta)
	// Row t of above is the loss gradient w.r.t. the current cell's h_t from
	// what it feeds: the head at the last step for the top cell, the x part
	// of the cell above's input gradient for the others.
	top := m.Cells[nl-1]
	aw := top.Out / 4
	above := make([]float32, steps*aw)
	m.Head.backward(st[nl-1].xh[(steps+1)*top.In-aw:], delta, gW[nl], gB[nl], above[(steps-1)*aw:])
	for l := nl - 1; l >= 0; l-- {
		c, s := m.Cells[l], st[l]
		xw, hs := c.In, c.Out/4
		// Row t of dxh takes step t's gradient w.r.t. [x_t; h_{t-1}]; row
		// steps stays zero, nothing flowing back from after the last step.
		dxh := make([]float32, (steps+1)*xw)
		dcNext, dPre := make([]float32, hs), make([]float32, 4*hs)
		for t := steps - 1; t >= 0; t-- {
			act := s.act[t*c.Out : (t+1)*c.Out]
			i, f, g, o := act[:hs], act[hs:2*hs], act[2*hs:3*hs], act[3*hs:]
			cPrev, cT := s.c[t*hs:(t+1)*hs], s.c[(t+1)*hs:(t+2)*hs]
			dhNext := dxh[(t+2)*xw-hs : (t+2)*xw]
			for j := 0; j < hs; j++ {
				dh := dhNext[j] + above[t*aw+j]
				tc := tanh32(cT[j])
				do := dh * tc
				dc := dcNext[j] + float32(dh*o[j]*(1-float32(tc*tc)))
				di, df, dg := dc*g[j], dc*cPrev[j], dc*i[j]
				dPre[j] = di * i[j] * (1 - i[j])
				dPre[hs+j] = df * f[j] * (1 - f[j])
				dPre[2*hs+j] = dg * (1 - float32(g[j]*g[j]))
				dPre[3*hs+j] = do * o[j] * (1 - o[j])
				dcNext[j] = dc * f[j]
			}
			c.backward(s.xh[t*xw:(t+1)*xw], dPre, gW[l], gB[l], dxh[t*xw:(t+1)*xw])
		}
		above, aw = dxh, xw
	}
	return loss
}
