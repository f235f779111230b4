package linnos

import (
	"testing"
	"time"

	"lakego/internal/core"
	"lakego/internal/features"
	"lakego/internal/nn"
	"lakego/internal/offload"
	"lakego/internal/policy"
	"lakego/internal/trace"
)

func boot(t *testing.T) *core.Runtime {
	t.Helper()
	rt, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func TestFeatureVectorEncoding(t *testing.T) {
	v := FeatureVector(42, []time.Duration{1234 * time.Microsecond})
	if len(v) != InputWidth {
		t.Fatalf("width = %d, want %d", len(v), InputWidth)
	}
	// Pending 42 -> digits 0,4,2.
	if v[0] != 0 || v[1] != 4 || v[2] != 2 {
		t.Fatalf("pending digits = %v", v[:3])
	}
	// First latency 1234µs -> 7 digits 0001234.
	want := []float32{0, 0, 0, 1, 2, 3, 4}
	for i, w := range want {
		if v[3+i] != w {
			t.Fatalf("latency digits = %v, want %v", v[3:10], want)
		}
	}
	// Missing latencies encode as zero.
	for i := 10; i < InputWidth; i++ {
		if v[i] != 0 {
			t.Fatalf("slot %d = %v, want 0", i, v[i])
		}
	}
}

func TestFeatureVectorSaturates(t *testing.T) {
	v := FeatureVector(5000, []time.Duration{time.Hour})
	if v[0] != 9 || v[1] != 9 || v[2] != 9 {
		t.Fatalf("pending saturation = %v", v[:3])
	}
	for i := 3; i < 10; i++ {
		if v[i] != 9 {
			t.Fatalf("latency saturation = %v", v[3:10])
		}
	}
	// Negative values clamp to zero.
	v = FeatureVector(-5, []time.Duration{-time.Second})
	for i := 0; i < 10; i++ {
		if v[i] != 0 {
			t.Fatalf("negative clamp = %v", v[:10])
		}
	}
}

func TestModelKindSizes(t *testing.T) {
	if got := Base.Sizes(); len(got) != 3 || got[1] != 256 {
		t.Fatalf("Base.Sizes = %v", got)
	}
	if got := Plus1.Sizes(); len(got) != 4 {
		t.Fatalf("Plus1.Sizes = %v", got)
	}
	if got := Plus2.Sizes(); len(got) != 5 {
		t.Fatalf("Plus2.Sizes = %v", got)
	}
	if Base.String() != "NN" || Plus1.String() != "NN+1" || Plus2.String() != "NN+2" {
		t.Fatal("kind strings wrong")
	}
	if len(Kinds()) != 3 {
		t.Fatal("Kinds() wrong")
	}
}

func TestCPUInferCostOrdering(t *testing.T) {
	if !(Base.CPUInferCost() < Plus1.CPUInferCost() && Plus1.CPUInferCost() < Plus2.CPUInferCost()) {
		t.Fatal("CPU costs not increasing with depth")
	}
	if Base.CPUInferCost() != 15*time.Microsecond {
		t.Fatalf("base cost = %v, want 15µs (§7.1)", Base.CPUInferCost())
	}
}

func TestNewPredictorRejectsWrongShape(t *testing.T) {
	rt := boot(t)
	if _, err := NewPredictor(rt, Plus1, nn.New(1, Base.Sizes()...)); err == nil {
		t.Fatal("wrong depth accepted")
	}
	if _, err := NewPredictor(rt, Base, nn.New(1, 16, 256, 2)); err == nil {
		t.Fatal("wrong width accepted")
	}
}

func TestCPUAndLAKEAgreeOnPredictions(t *testing.T) {
	rt := boot(t)
	pred, err := NewPredictor(rt, Base, nn.New(3, Base.Sizes()...))
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]float32, 16)
	for i := range batch {
		batch[i] = FeatureVector(i*7, []time.Duration{time.Duration(i) * 300 * time.Microsecond})
	}
	cpuPred, _ := pred.InferCPU(batch)
	gpuPred, _, err := pred.InferLAKE(batch, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cpuPred {
		if cpuPred[i] != gpuPred[i] {
			t.Fatalf("prediction %d differs: cpu=%v gpu=%v", i, cpuPred[i], gpuPred[i])
		}
	}
}

func TestInferLAKEBatchLimits(t *testing.T) {
	rt := boot(t)
	pred, _ := NewPredictor(rt, Base, nn.New(3, Base.Sizes()...))
	if _, _, err := pred.InferLAKE(make([][]float32, MaxBatch+1), true); err == nil {
		t.Fatal("oversized batch accepted")
	}
	if preds, d, err := pred.InferLAKE(nil, true); err != nil || preds != nil || d != 0 {
		t.Fatal("empty batch should be a no-op")
	}
	if _, _, err := pred.InferLAKE([][]float32{{1, 2}}, true); err == nil {
		t.Fatal("narrow feature vector accepted")
	}
}

// Fig 8 / Table 3: the base model's GPU crossover must land at batch 8,
// with the augmented models crossing earlier, and single-inference CPU time
// ~15µs.
func TestFig8Crossovers(t *testing.T) {
	rt := boot(t)
	rt.Clock().Advance(time.Second)
	pts, err := InferenceSweep(rt, Base, offload.StandardBatches())
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].CPU != 15*time.Microsecond {
		t.Fatalf("CPU(1) = %v, want 15µs", pts[0].CPU)
	}
	if got := offload.Crossover(pts); got != 8 {
		for _, p := range pts {
			t.Logf("batch %4d: cpu=%v lake=%v sync=%v", p.Batch, p.CPU, p.LAKE, p.LAKESync)
		}
		t.Fatalf("base crossover = %d, want 8 (Table 3)", got)
	}
	// GPU(8) end-to-end should be in the ~58µs ballpark §7.1 reports.
	var g8 time.Duration
	for _, p := range pts {
		if p.Batch == 8 {
			g8 = p.LAKE
		}
	}
	if g8 < 40*time.Microsecond || g8 > 90*time.Microsecond {
		t.Fatalf("LAKE(8) = %v, want ~58µs", g8)
	}

	p1, err := InferenceSweep(rt, Plus1, offload.StandardBatches())
	if err != nil {
		t.Fatal(err)
	}
	c1 := offload.Crossover(p1)
	if c1 < 2 || c1 > 4 {
		t.Fatalf("+1 crossover = %d, want in [2,4] (paper: >3)", c1)
	}
	p2, err := InferenceSweep(rt, Plus2, offload.StandardBatches())
	if err != nil {
		t.Fatal(err)
	}
	c2 := offload.Crossover(p2)
	if c2 < 1 || c2 > 2 {
		t.Fatalf("+2 crossover = %d, want <= 2 (paper: >2)", c2)
	}
	if c1 > 8 || c2 > c1 {
		t.Fatalf("crossovers not decreasing with model size: base=8, +1=%d, +2=%d", c1, c2)
	}
}

func TestSyncCostsMoreThanAsync(t *testing.T) {
	rt := boot(t)
	pts, err := InferenceSweep(rt, Base, []int{64})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].LAKESync <= pts[0].LAKE {
		t.Fatalf("sync %v not > async %v", pts[0].LAKESync, pts[0].LAKE)
	}
}

func TestCollectSamplesLabels(t *testing.T) {
	reqs := trace.Azure().Rerate(3).Generate(5, 3000)
	samples, threshold := CollectSamples(5, reqs)
	if len(samples) == 0 || threshold <= 0 {
		t.Fatalf("samples=%d threshold=%v", len(samples), threshold)
	}
	slow := 0
	for _, s := range samples {
		if len(s.X) != InputWidth {
			t.Fatalf("sample width %d", len(s.X))
		}
		if s.Slow {
			slow++
		}
	}
	frac := float64(slow) / float64(len(samples))
	if frac < 0.05 || frac > 0.35 {
		t.Fatalf("slow fraction = %.3f, want ~0.2 (p80 threshold)", frac)
	}
}

func TestTrainingBeatsChance(t *testing.T) {
	reqs := trace.Azure().Rerate(3).Generate(6, 4000)
	samples, _ := CollectSamples(6, reqs)
	net, acc, err := Train(Base, 7, samples, 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if net == nil {
		t.Fatal("nil network")
	}
	// Majority class is ~80%; a useful model must beat it.
	if acc < 0.82 {
		t.Fatalf("training accuracy = %.3f, want > 0.82", acc)
	}
}

func TestTrainRejectsEmpty(t *testing.T) {
	if _, _, err := Train(Base, 1, nil, 1, 0.1); err == nil {
		t.Fatal("empty training set accepted")
	}
}

func TestReplayBaselineVsMLShape(t *testing.T) {
	// The Fig 7 headline: for the stressed mixed workload, ML-driven
	// reissue beats the baseline; the replay engine must reproduce that.
	rt := boot(t)
	net, err := TrainedNetwork(Base)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := NewPredictor(rt, Base, net)
	if err != nil {
		t.Fatal(err)
	}
	w := MixedWorkload("Mixed+", 2500, 31, 3)

	base, err := Replay(nil, w, DefaultReplayConfig(ModeBaseline))
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := Replay(pred, w, DefaultReplayConfig(ModeCPU))
	if err != nil {
		t.Fatal(err)
	}
	if base.Reads == 0 || cpu.Reads == 0 {
		t.Fatalf("no reads: base=%+v cpu=%+v", base, cpu)
	}
	if cpu.Reissued == 0 {
		t.Fatal("ML mode never reissued")
	}
	if cpu.AvgRead >= base.AvgRead {
		t.Fatalf("ML (%v) did not beat baseline (%v) on Mixed+", cpu.AvgRead, base.AvgRead)
	}
}

func TestReplayLAKEUsesGPUBatches(t *testing.T) {
	rt := boot(t)
	net, err := TrainedNetwork(Base)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := NewPredictor(rt, Base, net)
	if err != nil {
		t.Fatal(err)
	}
	w := MixedWorkload("Mixed+", 2000, 32, 3)
	res, err := Replay(pred, w, DefaultReplayConfig(ModeLAKE))
	if err != nil {
		t.Fatal(err)
	}
	if res.GPUBatches == 0 {
		t.Fatalf("LAKE replay never dispatched a GPU batch: %+v", res)
	}
}

func TestReplayValidation(t *testing.T) {
	w := MixedWorkload("m", 100, 1, 1)
	if _, err := Replay(nil, w, DefaultReplayConfig(ModeCPU)); err == nil {
		t.Fatal("CPU mode without predictor accepted")
	}
	one := Workload{Name: "one", PerDevice: [][]trace.Request{trace.Azure().Generate(1, 10)}}
	if _, err := Replay(nil, one, DefaultReplayConfig(ModeBaseline)); err == nil {
		t.Fatal("single-device workload accepted")
	}
}

func TestSingleTraceWorkloadShape(t *testing.T) {
	w := SingleTraceWorkload(trace.Azure(), 3, 100, 1)
	if len(w.PerDevice) != 3 || w.Name != "Azure*" {
		t.Fatalf("workload = %s with %d devices", w.Name, len(w.PerDevice))
	}
	for _, reqs := range w.PerDevice {
		if len(reqs) != 100 {
			t.Fatalf("trace len %d", len(reqs))
		}
	}
}

// Model lifecycle end to end (§5.1): the trained network survives
// update_model -> load_model through the feature store and predicts
// identically after the round trip.
func TestModelLifecycleThroughFeatureStore(t *testing.T) {
	net, err := TrainedNetwork(Base)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/linnos.model"
	store := features.NewStore()
	if _, err := store.CreateModel("sda1", "bio", path); err != nil {
		t.Fatal(err)
	}
	if err := store.UpdateModel("sda1", "bio", net.Marshal()); err != nil {
		t.Fatal(err)
	}
	m, err := store.LoadModel("sda1", "bio", path)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := nn.Unmarshal(m.Blob)
	if err != nil {
		t.Fatal(err)
	}
	x := FeatureVector(12, []time.Duration{500 * time.Microsecond})
	a, b := net.Forward(x), restored.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("restored model diverges: %v vs %v", a, b)
		}
	}
}

// The full Table 1 loop: register the LinnOS predictor as the registry's
// classifier (register_classifier) with a batching policy
// (register_policy), then drive begin/capture/commit/get/score/truncate —
// the Listing 4 call sequence — and check routing.
func TestScoreFeaturesListing4Loop(t *testing.T) {
	rt := boot(t)
	pred, err := NewPredictor(rt, Base, nn.New(3, Base.Sizes()...))
	if err != nil {
		t.Fatal(err)
	}
	reg, err := features.NewStore().CreateRegistry("sda1", "bio_latency_prediction", features.Schema{
		{Key: "pend_ios", Size: 8, Entries: 1},
		{Key: "io_latency", Size: 8, Entries: 4},
	}, 64)
	if err != nil {
		t.Fatal(err)
	}
	toBatch := func(vecs []features.Vector) [][]float32 {
		xs := make([][]float32, len(vecs))
		for i, v := range vecs {
			xs[i] = vectorOf(v)
		}
		return xs
	}
	var gpuBatches, cpuBatches int
	reg.RegisterClassifier(features.ArchCPU, func(batch []features.Vector) ([]float32, error) {
		cpuBatches++
		slow, _ := pred.InferCPU(toBatch(batch))
		return boolScores(slow), nil
	})
	reg.RegisterClassifier(features.ArchGPU, func(batch []features.Vector) ([]float32, error) {
		gpuBatches++
		slow, _, err := pred.InferLAKE(toBatch(batch), true)
		if err != nil {
			return nil, err
		}
		return boolScores(slow), nil
	})
	reg.RegisterPolicy(func(b int) policy.Decision {
		if b >= 8 {
			return policy.UseGPU
		}
		return policy.UseCPU
	})

	// Listing 4: capture per I/O, commit, batch-score, truncate.
	commit := func(n int) {
		for i := 0; i < n; i++ {
			reg.BeginCapture(time.Duration(i))
			reg.CaptureFeatureIncr("pend_ios", 1)
			reg.CaptureFeature("io_latency", u64le(int64(i)*1000))
			reg.CommitCapture(time.Duration(i))
			reg.CaptureFeatureIncr("pend_ios", -1)
		}
	}
	commit(4)
	scores, arch, err := reg.ScoreFeatures(reg.GetFeatures(features.NullTS))
	if err != nil || arch != features.ArchCPU || len(scores) != 4 {
		t.Fatalf("small batch: %d scores on %v, err %v", len(scores), arch, err)
	}
	reg.Truncate(features.NullTS)
	commit(16)
	scores, arch, err = reg.ScoreFeatures(reg.GetFeatures(features.NullTS))
	if err != nil || arch != features.ArchGPU {
		t.Fatalf("large batch: arch %v, err %v", arch, err)
	}
	// One retained history vector from the truncate plus 16 fresh commits.
	if len(scores) != 17 {
		t.Fatalf("scored %d vectors, want 17", len(scores))
	}
	if cpuBatches != 1 || gpuBatches != 1 {
		t.Fatalf("batches cpu=%d gpu=%d, want 1/1", cpuBatches, gpuBatches)
	}
	st := reg.Stats()
	if st.Scored != 21 || st.Commits != 20 {
		t.Fatalf("stats = %+v", st)
	}
}

func boolScores(slow []bool) []float32 {
	out := make([]float32, len(slow))
	for i, s := range slow {
		if s {
			out[i] = 1
		}
	}
	return out
}
