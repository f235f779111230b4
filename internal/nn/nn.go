// Package nn implements the models behind the paper's ML-assisted
// subsystems on one dense kernel: the feed-forward networks of LinnOS's I/O
// latency classifier ("two layers with 256 and 2 neurons", §7.1, plus the
// +1/+2 augmented variants), MLLB's load-balancing perceptron (§7.3) and
// KML's readahead classifier (§7.4); Kleio's LSTM (§7.2), whose gates and
// head are dense Layers; and the malware detector's k-nearest-neighbours
// classifier (§7.5).
//
// Models run real float32 arithmetic — forward inference and SGD training
// with softmax cross-entropy, one Layer.backward for the MLP and for
// backpropagation through time — so the end-to-end experiments classify with
// genuinely trained models. The package also provides serialization (for the
// feature registry's model lifecycle) and FLOP accounting (for the GPU cost
// model).
package nn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// Activation selects a layer's nonlinearity.
type Activation uint8

// Supported activations.
const (
	Linear Activation = iota
	ReLU
)

// Layer is one dense layer: y = act(W*x + b) with W stored input-major
// (In rows of Out columns): W[k*Out+o] is the weight input k feeds output o,
// so the weights one input scales into consecutive outputs are contiguous.
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
		l := newLayer(in, out, ReLU)
		if i+2 == len(sizes) {
			l.Act = Linear
		}
		scale := float32(math.Sqrt(2 / float64(in)))
		for o := 0; o < out; o++ {
			for k := 0; k < in; k++ {
				l.W[k*out+o] = float32(rng.NormFloat64()) * scale
			}
		}
		net.Layers = append(net.Layers, l)
	}
	return net
}

// newLayer returns a zeroed in x out layer.
func newLayer(in, out int, act Activation) *Layer {
	return &Layer{In: in, Out: out, W: make([]float32, in*out), B: make([]float32, out), Act: act}
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

// slabStackWidth is the widest activation row ForwardSlab keeps on its
// stack: 256, the hidden width of the LinnOS+ networks and the widest layer
// any shipped model has. A wider network's activations take one heap
// buffer per call. A network no wider than slabNarrowWidth, MLLB's 64,
// takes a buffer of that width instead: the buffer is zeroed on every call,
// and a one-row call is short enough for 512 floats of zeroing to show.
const (
	slabStackWidth  = 256
	slabNarrowWidth = 64
)

// slabWidth returns the widest activation row ForwardSlab holds — the input
// or any layer's output — once it has checked the layers: there must be
// some, each W and B must hold In*Out weights and Out biases, and each In
// must be the previous layer's Out. Layers are exported, so a hand-built one
// can be any shape, and the dense kernel reads the lengths the shape
// declares without bounds checks. In*Out is taken at double width, so no
// overflow can pass.
func (n *Network) slabWidth() (int, error) {
	if len(n.Layers) == 0 {
		return 0, errors.New("nn: network has no layers")
	}
	width := 0
	for i, l := range n.Layers {
		if l == nil {
			return 0, fmt.Errorf("nn: layer %d is nil", i)
		}
		if i > 0 && l.In != n.Layers[i-1].Out {
			return 0, fmt.Errorf("nn: layer %d takes %d inputs, layer %d gives %d", i, l.In, i-1, n.Layers[i-1].Out)
		}
		hi, lo := bits.Mul(uint(l.In), uint(l.Out))
		if l.In < 0 || len(l.B) != l.Out || hi != 0 || lo != uint(len(l.W)) {
			return 0, fmt.Errorf("nn: layer %d is %dx%d with %d weights and %d biases", i, l.In, l.Out, len(l.W), len(l.B))
		}
		width = max(width, l.In, l.Out)
	}
	return width, nil
}

// ForwardSlab runs items inferences over a row-major slab: in holds items
// rows of InputSize floats, out receives items rows of OutputSize logits,
// each bit-identical to Forward on that row. A last layer of 1 to 4 outputs
// runs on groups of eight or four rows, one a SIMD lane (forwardFours); the
// rows left run one at a time. Activations live on the stack for any network
// no wider than slabStackWidth, so such a call allocates nothing and shares
// no state; it is safe for concurrent use.
func (n *Network) ForwardSlab(in []float32, items int, out []float32) error {
	width, err := n.slabWidth()
	if err != nil {
		return err
	}
	inW, outW := n.InputSize(), n.OutputSize()
	if items < 0 || len(in) != items*inW || len(out) != items*outW {
		return fmt.Errorf("nn: slab of %d items: %d inputs and %d outputs, want %d and %d",
			items, len(in), len(out), items*inW, items*outW)
	}
	switch {
	case width <= slabNarrowWidth:
		var stack [2 * slabNarrowWidth]float32
		n.forwardSlab(in, items, out, stack[:])
	case width <= slabStackWidth:
		var stack [2 * slabStackWidth]float32
		n.forwardSlab(in, items, out, stack[:])
	default:
		n.forwardSlab(in, items, out, make([]float32, 2*width))
	}
	return nil
}

// forwardSlab is ForwardSlab on checked arguments. Activations ping-pong
// between the two halves of buf, each at least one row of the network's
// widest layer; the output layer writes straight into out.
func (n *Network) forwardSlab(in []float32, items int, out, buf []float32) {
	inW, outW := n.InputSize(), n.OutputSize()
	a, b := buf[:len(buf)/2], buf[len(buf)/2:]
	done := 0
	if l := n.Layers[len(n.Layers)-1]; items >= 4 && l.Out >= 1 && l.Out <= 4 && l.In <= slabStackWidth {
		done = items &^ 3
		n.forwardFours(in, done, out, a, b)
	}
	for i := done; i < items; i++ {
		forwardRow(n.Layers, in[i*inW:(i+1)*inW], out[i*outW:(i+1)*outW], a, b)
	}
}

// forwardRow runs row x through layers into y, the activations ping-ponging
// between a and b.
func forwardRow(layers []*Layer, x, y, a, b []float32) {
	last := len(layers) - 1
	for _, l := range layers[:last] {
		l.forward(x, a)
		x, a, b = a, b, a
	}
	layers[last].forward(x, y)
}

// forwardFours runs the first items rows, a multiple of four, in groups of
// eight and then, if four are left, of four: each row's hidden layers run
// into one of eight rows on this frame, not ForwardSlab's, and the last
// layer runs once on the group (forwardLanes).
func (n *Network) forwardFours(in []float32, items int, out, a, b []float32) {
	var rows [8 * slabStackWidth]float32
	hid, last := n.Layers[:len(n.Layers)-1], n.Layers[len(n.Layers)-1]
	inW, midW := n.InputSize(), last.In
	for i := 0; i < items; {
		g := min(8, items-i)
		x := in[i*inW : (i+g)*inW]
		if len(hid) > 0 {
			for r := range g {
				forwardRow(hid, x[r*inW:(r+1)*inW], rows[r*midW:(r+1)*midW], a, b)
			}
			x = rows[:g*midW]
		}
		last.forwardLanes(x, out[i*last.Out:(i+g)*last.Out], g)
		i += g
	}
}

// Predict returns the argmax class for x, or 0 when the output layer is
// empty — lifecycle shadow scoring reaches this on registry-loaded models,
// so a degenerate network must degrade to class 0 instead of panicking.
func (n *Network) Predict(x []float32) int { return Argmax(n.Forward(x)) }

// PredictScratch is Predict with the activations kept in s, so scoring a
// window allocates nothing. A scratch shaped for another architecture falls
// back to Predict.
func (n *Network) PredictScratch(s *Scratch, x []float32) int {
	if !s.fits(n) || len(x) != n.InputSize() {
		return n.Predict(x)
	}
	class := Argmax(n.forwardScratch(s, x))
	s.acts[0] = nil // don't retain the caller's sample
	return class
}

// Argmax returns the index of the largest logit. The comparison is strict,
// so the first maximum wins a tie and a NaN never displaces the current
// best; an empty row yields 0. It is the decision rule of Predict and of
// every neural workload's decoder.
func Argmax(logits []float32) int {
	best := 0
	for i, v := range logits {
		if v > logits[best] {
			best = i
		}
	}
	return best
}

// softmaxInto writes the probabilities of logits (numerically stabilized)
// into the training scratch dst, which must be len(logits); empty input is
// a no-op.
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

// crossEntropy writes the softmax cross-entropy loss gradient w.r.t. the
// logits, the softmax distribution minus the one-hot label, into delta,
// which may be logits, and returns the loss.
func crossEntropy(logits []float32, label int, delta []float32) float64 {
	softmaxInto(delta, logits)
	loss := -math.Log(max(float64(delta[label]), 1e-12))
	delta[label] -= 1
	return loss
}

// backward adds one example's gradients into gW and gB — delta is the loss
// gradient w.r.t. the layer's pre-activations, in its input — and, unless
// dIn is nil, overwrites dIn with the gradient w.r.t. in. An output whose
// delta is zero adds nothing. Each dIn[k] sums its terms in ascending output
// order, and each product is rounded before its add, so no platform fuses
// them: trained weights are the same bits everywhere (TestMarshalDigests,
// TestLSTMKNNDigests).
func (l *Layer) backward(in, delta, gW, gB, dIn []float32) {
	for o, d := range delta {
		if d == 0 {
			continue
		}
		gB[o] += d
		for k, xv := range in {
			gW[k*l.Out+o] += float32(d * xv)
		}
	}
	if dIn == nil {
		return
	}
	clear(dIn)
	for o, d := range delta {
		if d == 0 {
			continue
		}
		for k := range dIn {
			dIn[k] += float32(l.W[k*l.Out+o] * d)
		}
	}
}

// sgd moves each weight and bias down scale times its gradient.
func (l *Layer) sgd(gW, gB []float32, scale float32) {
	for j, g := range gW {
		l.W[j] -= float32(scale * g)
	}
	for j, g := range gB {
		l.B[j] -= float32(scale * g)
	}
}

// Scratch holds every buffer one TrainBatch step needs — gradient
// accumulators, retained activations and the per-layer backprop deltas — so an online trainer can run SGD steps
// indefinitely without per-step garbage. A Scratch is shaped for one
// network architecture and is reusable across steps (each step zeroes the
// accumulators itself); it is not safe for concurrent use.
type Scratch struct {
	sizes  []int
	gW, gB [][]float32
	acts   [][]float32 // acts[i+1] is layer i's retained output
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
		loss += crossEntropy(n.forwardScratch(s, x), label, s.deltas[nl-1])
		for i := nl - 1; i >= 0; i-- {
			l, delta := n.Layers[i], s.deltas[i]
			// ReLU derivative gates delta by the layer's own output.
			if l.Act == ReLU {
				for o, out := range s.acts[i+1] {
					if out <= 0 {
						delta[o] = 0
					}
				}
			}
			var dIn []float32
			if i > 0 {
				dIn = s.deltas[i-1]
			}
			l.backward(s.acts[i], delta, s.gW[i], s.gB[i], dIn)
		}
	}
	s.acts[0] = nil // don't retain the caller's last sample
	// Apply averaged gradients.
	scale := lr / float32(len(xs))
	for i, l := range n.Layers {
		l.sgd(s.gW[i], s.gB[i], scale)
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
	return accuracy(xs, labels, n.Predict)
}

// accuracy is the fraction of xs that predict labels right, 0 for none.
func accuracy(xs [][]float32, labels []int, predict func([]float32) int) float64 {
	if len(xs) == 0 {
		return 0
	}
	correct := 0
	for i, x := range xs {
		if predict(x) == labels[i] {
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
		// LNN1 stores weights output-major, as the layout was when the
		// format was fixed.
		for o := 0; o < l.Out; o++ {
			for k := 0; k < l.In; k++ {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(l.W[k*l.Out+o]))
			}
		}
		for _, b := range l.B {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(b))
		}
	}
	return buf
}

// ErrBadModel reports a corrupt serialized network.
var ErrBadModel = errors.New("nn: corrupt model blob")

// Unmarshal deserializes a network produced by Marshal. A blob whose layers
// do not chain, each In the previous layer's Out, is ErrBadModel.
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
		if in <= 0 || out <= 0 || in > 1<<20 || out > 1<<20 || act > ReLU || i > 0 && in != net.Layers[i-1].Out {
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
		l := newLayer(in, out, act)
		for o := 0; o < out; o++ {
			for k := 0; k < in; k++ {
				l.W[k*out+o] = math.Float32frombits(binary.LittleEndian.Uint32(blob[pos:]))
				pos += 4
			}
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
