package nn_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"lakego/internal/kml"
	"lakego/internal/linnos"
	"lakego/internal/mllb"
	"lakego/internal/nn"
)

// TestMarshalDigests pins the bytes of real models — LinnOS NN and NN+2
// (256x256 hidden) and MLLB as New draws them, and after ten SGD steps on
// each dense kernel — so a change to New's RNG fill order, to the LNN1 byte
// order or to training arithmetic fails here rather than in some downstream
// golden.
func TestMarshalDigests(t *testing.T) { nn.EachKernel(t, testMarshalDigests) }

func testMarshalDigests(t *testing.T) {
	for _, tc := range []struct {
		name           string
		net            *nn.Network
		fresh, trained string
	}{
		{"linnos", nn.New(3, linnos.Base.Sizes()...),
			"c8c3fbdc2b7d0d00ed8e38f2fb6b4c44fcb27daa5b4cb1936ac13246cc4d824a",
			"22000d5b4499a00ce0b3031489338dc9117f0db2f6ee9c2d2c0780f3eb2c0644"},
		{"linnos+2", nn.New(3, linnos.Plus2.Sizes()...),
			"8dcabd82bf15eec656f205d6400bf49ea226c17cf9369fa42a877165a87da6d3",
			"ebc03d66219dabbcd8764100cb0effa67ba28019bae0780b1a3539dcf7c0e660"},
		{"mllb", nn.New(7, mllb.Sizes()...),
			"aec56455b6e981cdc326a7c3458bde404e6a9ba2b9cf62a1af82e125455dc4da",
			"1d4f0605752e755a0c2e6e31ad3bbfba1457e97dac61aad8564c76c7fbdfeeb6"},
	} {
		digest := func() string {
			sum := sha256.Sum256(tc.net.Marshal())
			return hex.EncodeToString(sum[:])
		}
		if got := digest(); got != tc.fresh {
			t.Errorf("%s: New marshals to sha256 %s, want %s", tc.name, got, tc.fresh)
		}
		rng := rand.New(rand.NewSource(1))
		xs, labels := make([][]float32, 16), make([]int, 16)
		for i := range xs {
			xs[i] = make([]float32, tc.net.InputSize())
			for k := range xs[i] {
				xs[i][k] = rng.Float32()*2 - 1
			}
			labels[i] = rng.Intn(tc.net.OutputSize())
		}
		s := nn.NewScratch(tc.net)
		for step := 0; step < 10; step++ {
			if _, err := tc.net.TrainBatchScratch(s, xs, labels, 0.05); err != nil {
				t.Fatal(err)
			}
		}
		if got := digest(); got != tc.trained {
			t.Errorf("%s: after 10 steps marshals to sha256 %s, want %s", tc.name, got, tc.trained)
		}
	}
}

// TestForwardSlabDigests pins the logits of one 1024-row ForwardSlab call —
// the batch Fig 8 sweeps up to — on LinnOS NN, NN+1 and NN+2 and on KML
// (128 hidden), on either dense kernel. The seeded rows carry -0, ±Inf and
// NaN features, so a slab pass that reorders a sum, fuses a product, drops
// a -0 or mixes two rows fails here. NaNs hash as one pattern: which NaN
// survives a NaN+NaN is not arithmetic (see sameBits).
func TestForwardSlabDigests(t *testing.T) { nn.EachKernel(t, testForwardSlabDigests) }

func testForwardSlabDigests(t *testing.T) {
	const items = 1024
	for _, tc := range []struct {
		name string
		net  *nn.Network
		want string
	}{
		{"linnos", nn.New(3, linnos.Base.Sizes()...), "40e2895d653312cc08da071ab6b784373066da1c597135e629eadeab9483a125"},
		{"linnos+1", nn.New(3, linnos.Plus1.Sizes()...), "4a8d1a7947b4503acbb995b3d9a77409642ba2a67c6820ca35a3b1bc2cd8366a"},
		{"linnos+2", nn.New(3, linnos.Plus2.Sizes()...), "ad79fc93f3bf1602cdec9c0c3cee6bfd8c133c20d554916aefeb820feedd5e33"},
		{"kml", nn.New(5, kml.Sizes()...), "20a6d8b5c49b64b01fb4ebf602d39960e4492ea947de4fc9b32f536b4885556f"},
	} {
		inW := tc.net.InputSize()
		rng := rand.New(rand.NewSource(1))
		in := make([]float32, items*inW)
		for i := range in {
			in[i] = float32(rng.NormFloat64() * 2)
		}
		for r := 0; r < items; r += 13 {
			row := in[r*inW : (r+1)*inW]
			switch k := rng.Intn(inW); r % 4 {
			case 0:
				row[k] = float32(math.Copysign(0, -1))
			case 1:
				row[k] = float32(math.Inf(1))
			case 2:
				row[k] = float32(math.Inf(-1))
			default:
				row[k] = float32(math.NaN())
			}
		}
		for k := range in[5*inW : 6*inW] {
			in[5*inW+k] = float32(math.Copysign(0, -1))
		}
		out := make([]float32, items*tc.net.OutputSize())
		if err := tc.net.ForwardSlab(in, items, out); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != v {
				out[i] = float32(math.NaN())
			}
		}
		if got := f32Digest(out); got != tc.want {
			t.Errorf("%s: %d-row slab logits sha256 %s, want %s", tc.name, items, got, tc.want)
		}
	}
}

// f32Digest is the sha256 of vs' bit patterns, little-endian.
func f32Digest(vs []float32) string {
	buf := make([]byte, 0, 4*len(vs))
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestLSTMKNNDigests pins the bits of the two models outside the MLP: the
// Kleio-shaped LSTM's logits, ten BPTT steps of the TrainScheduler shape
// (each step's loss, then the trained logits) and the malware KNN's labels,
// so moving either model onto another kernel fails here if it changes one
// bit of what the experiments see.
func TestLSTMKNNDigests(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seqs := make([][]float32, 64)
	for i := range seqs {
		seqs[i] = make([]float32, 16)
		for k := range seqs[i] {
			seqs[i][k] = float32(rng.NormFloat64() * 2)
		}
	}
	var logits []float32
	kleio := nn.NewLSTM(11, 1, []int{32, 32}, 2)
	for _, seq := range seqs {
		logits = append(logits, kleio.Forward(seq)...)
	}
	if got, want := f32Digest(logits), "1c2b8f0a5c900cbded834e8253efb34660ea9fcad62b9b5c3bb81e642deb40d6"; got != want {
		t.Errorf("kleio-shape logits: sha256 %s, want %s", got, want)
	}

	sched := nn.NewLSTM(5, 1, []int{12}, 2)
	batch, labels := make([][]float32, 32), make([]int, 32)
	for i := range batch {
		batch[i] = seqs[i]
		labels[i] = rng.Intn(2)
	}
	var trained []float32
	for step := 0; step < 10; step++ {
		loss, err := sched.TrainBatch(batch, labels, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		trained = append(trained, loss)
	}
	for _, seq := range seqs {
		trained = append(trained, sched.Forward(seq)...)
	}
	if got, want := f32Digest(trained), "277ac9a261aa1c57cb0cee940d5cdffd8855e08457a25464900a26411802de15"; got != want {
		t.Errorf("trained scheduler-shape losses and logits: sha256 %s, want %s", got, want)
	}

	point := func() []float32 {
		p := make([]float32, 16)
		for k := range p {
			p[k] = rng.Float32() * 10
		}
		return p
	}
	refs, refLabels := make([][]float32, 512), make([]int, 512)
	for i := range refs {
		refs[i], refLabels[i] = point(), rng.Intn(3)
	}
	cls, err := nn.NewKNN(refs, refLabels, 16)
	if err != nil {
		t.Fatal(err)
	}
	var votes []float32
	for q := 0; q < 256; q++ {
		label, err := cls.Classify(point())
		if err != nil {
			t.Fatal(err)
		}
		votes = append(votes, float32(label))
	}
	if got, want := f32Digest(votes), "2d5912655d524ff2e75513531817c49a242cfe18bff8fb0f13718b5a3c19bbce"; got != want {
		t.Errorf("knn labels: sha256 %s, want %s", got, want)
	}
}
