package nn_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"lakego/internal/linnos"
	"lakego/internal/mllb"
	"lakego/internal/nn"
)

// TestMarshalDigests pins the bytes of two real models — LinnOS and MLLB as
// New draws them, and after ten SGD steps — so a change to New's RNG fill
// order, to the LNN1 byte order or to training arithmetic fails here rather
// than in some downstream golden.
func TestMarshalDigests(t *testing.T) {
	for _, tc := range []struct {
		name           string
		net            *nn.Network
		fresh, trained string
	}{
		{"linnos", nn.New(3, linnos.Base.Sizes()...),
			"c8c3fbdc2b7d0d00ed8e38f2fb6b4c44fcb27daa5b4cb1936ac13246cc4d824a",
			"22000d5b4499a00ce0b3031489338dc9117f0db2f6ee9c2d2c0780f3eb2c0644"},
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
