// Package nn implements the dense feed-forward neural networks used by the
// paper's ML-assisted subsystems: LinnOS's I/O latency classifier ("two
// layers with 256 and 2 neurons", §7.1, plus the +1/+2 augmented variants),
// MLLB's load-balancing perceptron (§7.3) and KML's readahead classifier
// (§7.4).
//
// Networks run real float32 arithmetic — forward inference and SGD training
// with softmax cross-entropy — so the end-to-end experiments classify with a
// genuinely trained model. The package also provides serialization (for the
// feature registry's model lifecycle) and FLOP accounting (for the GPU cost
// model).
package nn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Activation selects a layer's nonlinearity.
type Activation uint8

// Supported activations.
const (
	Linear Activation = iota
	ReLU
)

// Layer is one dense layer: y = act(W*x + b) with W stored row-major
// (Out rows of In columns).
type Layer struct {
	In, Out int
	W       []float32
	B       []float32
	Act     Activation
}

// Network is a sequence of dense layers.
type Network struct {
	Layers []*Layer
}

// New builds a network with the given layer sizes (sizes[0] = input width),
// ReLU on hidden layers and a linear output layer, with He-style random
// initialization from seed (deterministic for reproducibility).
func New(seed int64, sizes ...int) *Network {
	if len(sizes) < 2 {
		panic("nn: need at least input and output sizes")
	}
	rng := rand.New(rand.NewSource(seed))
	net := &Network{}
	for i := 0; i+1 < len(sizes); i++ {
		in, out := sizes[i], sizes[i+1]
		if in <= 0 || out <= 0 {
			panic(fmt.Sprintf("nn: invalid layer size %dx%d", in, out))
		}
		l := &Layer{In: in, Out: out, W: make([]float32, in*out), B: make([]float32, out), Act: ReLU}
		if i+2 == len(sizes) {
			l.Act = Linear
		}
		scale := float32(math.Sqrt(2 / float64(in)))
		for j := range l.W {
			l.W[j] = float32(rng.NormFloat64()) * scale
		}
		net.Layers = append(net.Layers, l)
	}
	return net
}

// InputSize returns the expected input width.
func (n *Network) InputSize() int { return n.Layers[0].In }

// OutputSize returns the output width.
func (n *Network) OutputSize() int { return n.Layers[len(n.Layers)-1].Out }

// Sizes returns the layer widths including the input.
func (n *Network) Sizes() []int {
	s := []int{n.InputSize()}
	for _, l := range n.Layers {
		s = append(s, l.Out)
	}
	return s
}

// SameShape reports whether two networks have identical layer geometry.
// Allocation-free, so hot-swap validation can run it on every flip.
func SameShape(a, b *Network) bool {
	if len(a.Layers) != len(b.Layers) || a.InputSize() != b.InputSize() {
		return false
	}
	for i := range a.Layers {
		if a.Layers[i].Out != b.Layers[i].Out {
			return false
		}
	}
	return true
}

// Flops returns the multiply-accumulate FLOP count of one forward pass
// (2 FLOPs per weight), the quantity the GPU model converts to time.
func (n *Network) Flops() float64 {
	var f float64
	for _, l := range n.Layers {
		f += 2 * float64(l.In) * float64(l.Out)
	}
	return f
}

// forward is the one dense kernel: Forward, the training forward and
// ForwardSlab all run it. It is register-blocked four outputs to a pass over
// x, so four independent add chains hide the float32 add latency a single
// dot product serializes on. Each accumulator starts at its bias and adds
// w*x in ascending k, so every output is bit-identical to a scalar dot
// product. Rows past the last one alias it — their sums are recomputed and
// stored again — which leaves one multiply-accumulate loop and no tail.
func (l *Layer) forward(x, out []float32) {
	in, last := l.In, l.Out-1
	x = x[:in]
	for o := 0; o <= last; o += 4 {
		o1, o2, o3 := min(o+1, last), min(o+2, last), min(o+3, last)
		w0 := l.W[o*in:][:in]
		w1 := l.W[o1*in:][:in]
		w2 := l.W[o2*in:][:in]
		w3 := l.W[o3*in:][:in]
		s0, s1, s2, s3 := l.B[o], l.B[o1], l.B[o2], l.B[o3]
		for k, xv := range x {
			s0 += w0[k] * xv
			s1 += w1[k] * xv
			s2 += w2[k] * xv
			s3 += w3[k] * xv
		}
		if l.Act == ReLU {
			s0, s1, s2, s3 = relu(s0), relu(s1), relu(s2), relu(s3)
		}
		out[o], out[o1], out[o2], out[o3] = s0, s1, s2, s3
	}
}

// relu is `if s < 0 { s = 0 }` — not max, which would turn -0 into +0 — as
// a conditional move on the bit pattern: the values below zero are exactly
// the patterns 0x80000001 (just under -0) through 0xFF800000 (-Inf), so -0
// and the negative NaNs above -Inf pass through as the comparison leaves
// them. A pre-activation's sign is a coin flip, and the mispredicted branch
// cost as much as a third of a LinnOS forward pass.
func relu(s float32) float32 {
	b := math.Float32bits(s)
	if b-0x80000001 <= 0xFF800000-0x80000001 {
		b = 0
	}
	return math.Float32frombits(b)
}

// Forward runs one inference, returning the output activations (logits for
// classifier networks). It panics on an input of the wrong width.
func (n *Network) Forward(x []float32) []float32 {
	out := make([]float32, n.OutputSize())
	if err := n.ForwardSlab(x, 1, out); err != nil {
		panic(err)
	}
	return out
}

// slabScratch pools ForwardSlab's hidden activations. A pool rather than a
// buffer on the network: device kernel bodies run concurrently.
var slabScratch = sync.Pool{New: func() any { return new([]float32) }}

// ForwardSlab runs items inferences over a row-major slab: in holds items
// rows of InputSize floats, out receives items rows of OutputSize logits,
// each bit-identical to Forward on that row. Hidden activations live in
// pooled scratch, so a call allocates nothing once the pool is warm; it is
// safe for concurrent use.
func (n *Network) ForwardSlab(in []float32, items int, out []float32) error {
	inW, outW := n.InputSize(), n.OutputSize()
	if len(in) != items*inW || len(out) != items*outW {
		return fmt.Errorf("nn: slab of %d items: %d inputs and %d outputs, want %d and %d",
			items, len(in), len(out), items*inW, items*outW)
	}
	// Hidden layers ping-pong between the two halves of one buffer; the
	// output layer writes straight into out.
	hidden := 0
	for _, l := range n.Layers[:len(n.Layers)-1] {
		hidden = max(hidden, l.Out)
	}
	buf := slabScratch.Get().(*[]float32)
	defer slabScratch.Put(buf)
	if cap(*buf) < 2*hidden {
		*buf = make([]float32, 2*hidden)
	}
	a, b := (*buf)[:hidden], (*buf)[hidden:2*hidden]
	last := len(n.Layers) - 1
	for i := 0; i < items; i++ {
		cur := in[i*inW : (i+1)*inW]
		for _, l := range n.Layers[:last] {
			l.forward(cur, a)
			cur, a, b = a, b, a
		}
		n.Layers[last].forward(cur, out[i*outW:(i+1)*outW])
	}
	return nil
}

// Predict returns the argmax class for x, or 0 when the output layer is
// empty — lifecycle shadow scoring reaches this on registry-loaded models,
// so a degenerate network must degrade to class 0 instead of panicking.
func (n *Network) Predict(x []float32) int { return argmax(n.Forward(x)) }

// PredictScratch is Predict with the activations kept in s, so scoring a
// window allocates nothing. A scratch shaped for another architecture falls
// back to Predict.
func (n *Network) PredictScratch(s *Scratch, x []float32) int {
	if !s.fits(n) || len(x) != n.InputSize() {
		return n.Predict(x)
	}
	class := argmax(n.forwardScratch(s, x))
	s.acts[0] = nil // don't retain the caller's sample
	return class
}

func argmax(logits []float32) int {
	best := 0
	for i, v := range logits {
		if v > logits[best] {
			best = i
		}
	}
	return best
}

// Softmax converts logits to probabilities (numerically stabilized). Empty
// input yields an empty distribution rather than a panic.
func Softmax(logits []float32) []float32 {
	out := make([]float32, len(logits))
	softmaxInto(out, logits)
	return out
}

// softmaxInto is the allocation-free Softmax used by the training scratch;
// dst must be len(logits).
func softmaxInto(dst, logits []float32) {
	if len(logits) == 0 {
		return
	}
	maxv := logits[0]
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	var sum float32
	for i, v := range logits {
		e := float32(math.Exp(float64(v - maxv)))
		dst[i] = e
		sum += e
	}
	for i := range dst[:len(logits)] {
		dst[i] /= sum
	}
}

// Scratch holds every buffer one TrainBatch step needs — gradient
// accumulators, retained activations, the softmax distribution and the
// per-layer backprop deltas — so an online trainer can run SGD steps
// indefinitely without per-step garbage. A Scratch is shaped for one
// network architecture and is reusable across steps (each step zeroes the
// accumulators itself); it is not safe for concurrent use.
type Scratch struct {
	sizes  []int
	gW, gB [][]float32
	acts   [][]float32 // acts[i+1] is layer i's retained output
	probs  []float32
	deltas [][]float32 // deltas[i] is the gradient w.r.t. layer i's output
}

// NewScratch allocates training scratch shaped for n's architecture.
func NewScratch(n *Network) *Scratch {
	nl := len(n.Layers)
	s := &Scratch{
		sizes:  n.Sizes(),
		gW:     make([][]float32, nl),
		gB:     make([][]float32, nl),
		acts:   make([][]float32, nl+1),
		deltas: make([][]float32, nl),
	}
	for i, l := range n.Layers {
		s.gW[i] = make([]float32, len(l.W))
		s.gB[i] = make([]float32, len(l.B))
		s.acts[i+1] = make([]float32, l.Out)
		s.deltas[i] = make([]float32, l.Out)
	}
	s.probs = make([]float32, n.OutputSize())
	return s
}

// fits reports whether the scratch matches n's architecture. Allocation
// free: it runs on every online training step.
func (s *Scratch) fits(n *Network) bool {
	if len(s.sizes) != len(n.Layers)+1 {
		return false
	}
	for i, l := range n.Layers {
		if s.sizes[i] != l.In || s.sizes[i+1] != l.Out {
			return false
		}
	}
	return true
}

// forwardScratch runs x through every layer, retaining layer i's output in
// s.acts[i+1] (and x itself in s.acts[0]) for backprop, and returns the
// logits. s must fit n.
func (n *Network) forwardScratch(s *Scratch, x []float32) []float32 {
	s.acts[0] = x
	for i, l := range n.Layers {
		l.forward(s.acts[i], s.acts[i+1])
	}
	return s.acts[len(n.Layers)]
}

// TrainBatch performs one SGD step on a batch with integer class labels,
// minimizing softmax cross-entropy, and returns the mean loss.
func (n *Network) TrainBatch(xs [][]float32, labels []int, lr float32) (float32, error) {
	return n.TrainBatchScratch(NewScratch(n), xs, labels, lr)
}

// TrainBatchScratch is TrainBatch on caller-owned scratch: identical
// arithmetic (bit-for-bit — the lifecycle determinism test pins this), zero
// per-step allocation. The scratch must come from NewScratch on a network
// of the same architecture.
func (n *Network) TrainBatchScratch(s *Scratch, xs [][]float32, labels []int, lr float32) (float32, error) {
	if len(xs) != len(labels) {
		return 0, fmt.Errorf("nn: %d inputs but %d labels", len(xs), len(labels))
	}
	if len(xs) == 0 {
		return 0, nil
	}
	if !s.fits(n) {
		return 0, fmt.Errorf("nn: scratch shaped %v, network is %v", s.sizes, n.Sizes())
	}
	nl := len(n.Layers)
	for i := range n.Layers {
		clear(s.gW[i])
		clear(s.gB[i])
	}
	var loss float64
	for smp, x := range xs {
		label := labels[smp]
		if label < 0 || label >= n.OutputSize() {
			return 0, fmt.Errorf("nn: label %d out of range [0,%d)", label, n.OutputSize())
		}
		softmaxInto(s.probs, n.forwardScratch(s, x))
		p := float64(s.probs[label])
		if p < 1e-12 {
			p = 1e-12
		}
		loss += -math.Log(p)
		// Backward: output delta = probs - onehot.
		delta := s.deltas[nl-1]
		copy(delta, s.probs)
		delta[label] -= 1
		for i := nl - 1; i >= 0; i-- {
			l := n.Layers[i]
			in := s.acts[i]
			// ReLU derivative gates delta by the layer's own output.
			if l.Act == ReLU {
				out := s.acts[i+1]
				for o := range delta {
					if out[o] <= 0 {
						delta[o] = 0
					}
				}
			}
			for o := 0; o < l.Out; o++ {
				d := delta[o]
				if d == 0 {
					continue
				}
				s.gB[i][o] += d
				row := s.gW[i][o*l.In : (o+1)*l.In]
				for j, xv := range in {
					row[j] += d * xv
				}
			}
			if i > 0 {
				prev := s.deltas[i-1]
				clear(prev)
				for o := 0; o < l.Out; o++ {
					d := delta[o]
					if d == 0 {
						continue
					}
					row := l.W[o*l.In : (o+1)*l.In]
					for j, w := range row {
						prev[j] += w * d
					}
				}
				delta = prev
			}
		}
	}
	s.acts[0] = nil // don't retain the caller's last sample
	// Apply averaged gradients.
	scale := lr / float32(len(xs))
	for i, l := range n.Layers {
		for j := range l.W {
			l.W[j] -= scale * s.gW[i][j]
		}
		for j := range l.B {
			l.B[j] -= scale * s.gB[i][j]
		}
	}
	return float32(loss / float64(len(xs))), nil
}

// Clone returns a deep copy of the network. The model registry snapshots
// versions with it: a registered version must stay immutable while the
// trainer keeps mutating its working copy.
func (n *Network) Clone() *Network {
	c := &Network{Layers: make([]*Layer, len(n.Layers))}
	for i, l := range n.Layers {
		c.Layers[i] = &Layer{
			In: l.In, Out: l.Out, Act: l.Act,
			W: append([]float32(nil), l.W...),
			B: append([]float32(nil), l.B...),
		}
	}
	return c
}

// Accuracy evaluates classification accuracy over a labeled set.
func (n *Network) Accuracy(xs [][]float32, labels []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	correct := 0
	for i, x := range xs {
		if n.Predict(x) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs))
}

const marshalMagic = 0x4C4E4E31 // "LNN1"

// Marshal serializes the network (for the feature registry's model files).
func (n *Network) Marshal() []byte {
	size := 8
	for _, l := range n.Layers {
		size += 9 + 4*len(l.W) + 4*len(l.B)
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, marshalMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(n.Layers)))
	for _, l := range n.Layers {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(l.In))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(l.Out))
		buf = append(buf, byte(l.Act))
		for _, w := range l.W {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(w))
		}
		for _, b := range l.B {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(b))
		}
	}
	return buf
}

// ErrBadModel reports a corrupt serialized network.
var ErrBadModel = errors.New("nn: corrupt model blob")

// Unmarshal deserializes a network produced by Marshal.
func Unmarshal(blob []byte) (*Network, error) {
	if len(blob) < 8 || binary.LittleEndian.Uint32(blob) != marshalMagic {
		return nil, ErrBadModel
	}
	nl := int(binary.LittleEndian.Uint32(blob[4:]))
	if nl <= 0 || nl > 64 {
		return nil, ErrBadModel
	}
	pos := 8
	need := func(n int) bool { return pos+n <= len(blob) }
	net := &Network{}
	for i := 0; i < nl; i++ {
		if !need(9) {
			return nil, ErrBadModel
		}
		in := int(binary.LittleEndian.Uint32(blob[pos:]))
		out := int(binary.LittleEndian.Uint32(blob[pos+4:]))
		act := Activation(blob[pos+8])
		pos += 9
		if in <= 0 || out <= 0 || in > 1<<20 || out > 1<<20 || act > ReLU {
			return nil, ErrBadModel
		}
		// Bounds-check the declared shape against the bytes actually present
		// BEFORE allocating: in and out are attacker-controlled, and a
		// 17-byte blob declaring a 2^20 x 2^20 layer would otherwise demand a
		// 4 TiB weight slice. int64 math keeps in*out from overflowing int on
		// 32-bit builds.
		elems := int64(in)*int64(out) + int64(out)
		if int64(len(blob)-pos) < 4*elems {
			return nil, ErrBadModel
		}
		l := &Layer{In: in, Out: out, Act: act, W: make([]float32, in*out), B: make([]float32, out)}
		for j := range l.W {
			l.W[j] = math.Float32frombits(binary.LittleEndian.Uint32(blob[pos:]))
			pos += 4
		}
		for j := range l.B {
			l.B[j] = math.Float32frombits(binary.LittleEndian.Uint32(blob[pos:]))
			pos += 4
		}
		net.Layers = append(net.Layers, l)
	}
	if pos != len(blob) {
		return nil, ErrBadModel
	}
	return net, nil
}
