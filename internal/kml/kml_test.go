package kml

import (
	"math/rand"
	"testing"

	"lakego/internal/core"
	"lakego/internal/nn"
	"lakego/internal/offload"
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

func TestGeneratePatternsDiffer(t *testing.T) {
	seq := Generate(Sequential, 1, 256)
	rnd := Generate(Random, 1, 256)
	if len(seq) != 256 || len(rnd) != 256 {
		t.Fatal("wrong lengths")
	}
	// Sequential streams are mostly unit-stride; random never are.
	unit := func(s []int64) int {
		n := 0
		for i := 1; i < len(s); i++ {
			if s[i]-s[i-1] == 1 {
				n++
			}
		}
		return n
	}
	if unit(seq) < 200 {
		t.Fatalf("sequential stream has %d unit strides", unit(seq))
	}
	if unit(rnd) > 10 {
		t.Fatalf("random stream has %d unit strides", unit(rnd))
	}
}

func TestFeaturesSeparateClasses(t *testing.T) {
	fSeq := Features(Generate(Sequential, 2, WindowLen))
	fRnd := Features(Generate(Random, 2, WindowLen))
	if fSeq[1] < 0.8 {
		t.Fatalf("sequential unit-stride fraction = %v", fSeq[1])
	}
	if fRnd[1] > 0.1 {
		t.Fatalf("random unit-stride fraction = %v", fRnd[1])
	}
	fStr := Features(Generate(Strided, 2, WindowLen))
	if fStr[2] < 0.7 {
		t.Fatalf("strided dominant-stride fraction = %v", fStr[2])
	}
	fZipf := Features(Generate(Zipf, 2, WindowLen))
	if fZipf[6] <= fRnd[6] {
		t.Fatalf("zipf reuse %v not > random reuse %v", fZipf[6], fRnd[6])
	}
}

func TestFeaturesDegenerate(t *testing.T) {
	if got := Features(nil); len(got) != InputWidth {
		t.Fatalf("Features(nil) width %d", len(got))
	}
	if got := Features([]int64{5}); len(got) != InputWidth {
		t.Fatalf("Features(1) width %d", len(got))
	}
}

func TestTrainReachesHighAccuracy(t *testing.T) {
	samples := Dataset(7, 60)
	net, acc, err := Train(7, samples, 12)
	if err != nil {
		t.Fatal(err)
	}
	if net == nil || acc < 0.9 {
		t.Fatalf("training accuracy = %.3f, want >= 0.9 (4-way patterns are separable)", acc)
	}
}

func TestTrainEmpty(t *testing.T) {
	if _, _, err := Train(1, nil, 1); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestClassifierEndToEnd(t *testing.T) {
	rt := boot(t)
	net, _, err := Train(9, Dataset(9, 40), 10)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(rt, net)
	if err != nil {
		t.Fatal(err)
	}
	// Classify held-out windows of each class via both paths.
	var batch [][]float32
	var want []Pattern
	for _, p := range Patterns() {
		for w := 0; w < 4; w++ {
			batch = append(batch, Features(Generate(p, 1000+int64(w), WindowLen)))
			want = append(want, p)
		}
	}
	cpu, _ := c.InferCPU(batch)
	lake, _, err := c.InferLAKE(batch, true)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range cpu {
		if cpu[i] != lake[i] {
			t.Fatalf("path disagreement at %d", i)
		}
		if cpu[i] == want[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(want)); acc < 0.8 {
		t.Fatalf("held-out accuracy = %.2f, want >= 0.8", acc)
	}
}

func TestNewRejectsWrongShape(t *testing.T) {
	rt := boot(t)
	if _, err := New(rt, nn.New(1, 3, 4)); err == nil {
		t.Fatal("wrong shape accepted")
	}
}

// FlopsPerItem is captured from the network New wraps, so SwapNet must not
// admit a different hidden width even though the KML input/output widths
// match (the old first-and-last-width check did).
func TestSwapNetRejectsDifferentHiddenWidth(t *testing.T) {
	c, err := New(boot(t), nn.New(1, Sizes()...))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SwapNet(nn.New(2, InputWidth, 64, len(patternNames))); err == nil {
		t.Fatal("SwapNet admitted a {10,64,4} net into a {10,128,4} classifier")
	}
	next := nn.New(3, Sizes()...)
	if err := c.SwapNet(next); err != nil || c.Net() != next {
		t.Fatalf("same-shape swap: err = %v, serving swapped = %v", err, c.Net() == next)
	}
}

// Fig 11 / Table 3: crossover at 64 classifications.
func TestFig11Crossover(t *testing.T) {
	rt := boot(t)
	c, err := New(rt, nn.New(5, Sizes()...))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := Sweep(c, offload.StandardBatches())
	if err != nil {
		t.Fatal(err)
	}
	if got := offload.Crossover(pts); got != 64 {
		for _, p := range pts {
			t.Logf("batch %4d: cpu=%v lake=%v sync=%v", p.Batch, p.CPU, p.LAKE, p.LAKESync)
		}
		t.Fatalf("crossover = %d, want 64 (Table 3)", got)
	}
}

// Pattern-matched readahead must beat both extremes of fixed configuration
// on a mixed workload — the motivation for KML.
func TestAdaptiveReadaheadBeatsFixed(t *testing.T) {
	run := func(choose func(Pattern) int) float64 {
		var totalThroughput float64
		for _, p := range Patterns() {
			stream := Generate(p, 42, 4096)
			sim := NewCacheSim(512)
			res := sim.Run(stream, choose(p))
			totalThroughput += res.Throughput
		}
		return totalThroughput
	}
	adaptive := run(ReadaheadFor)
	alwaysBig := run(func(Pattern) int { return 64 })
	never := run(func(Pattern) int { return 0 })
	if adaptive <= alwaysBig || adaptive <= never {
		t.Fatalf("adaptive %.0f not better than fixed-big %.0f / fixed-off %.0f",
			adaptive, alwaysBig, never)
	}
}

func TestCacheSimBasics(t *testing.T) {
	sim := NewCacheSim(4)
	res := sim.Run([]int64{1, 2, 3, 1, 2, 3}, 0)
	if res.Hits != 3 || res.Misses != 3 {
		t.Fatalf("hits/misses = %d/%d, want 3/3", res.Hits, res.Misses)
	}
	if res.HitRatio != 0.5 || res.Throughput <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if got := NewCacheSim(1).Run(nil, 0); got.Hits != 0 {
		t.Fatal("empty stream produced hits")
	}
}

// The list-backed LRU evicts what a scan for the oldest last-use tick
// evicts, so it hits and misses on the same accesses; a capacity of 0
// keeps one page.
func TestCacheSimMatchesScanLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, capacity := range []int{0, 1, 2, 7, 64} {
		for _, readahead := range []int{0, 3} {
			stream := make([]int64, 4000)
			for i := range stream {
				stream[i] = int64(rng.Intn(96))
			}
			got := NewCacheSim(capacity).Run(stream, readahead)
			lru, tick := map[int64]int{}, 0
			touch := func(pg int64) {
				tick++
				if _, ok := lru[pg]; !ok && len(lru) >= capacity && len(lru) > 0 {
					victim, oldest := int64(0), tick
					for p, t := range lru {
						if t < oldest {
							victim, oldest = p, t
						}
					}
					delete(lru, victim)
				}
				lru[pg] = tick
			}
			hits := 0
			for _, pg := range stream {
				_, hit := lru[pg]
				touch(pg)
				if hit {
					hits++
					continue
				}
				for i := 1; i <= readahead; i++ {
					touch(pg + int64(i))
				}
			}
			if got.Hits != hits {
				t.Fatalf("capacity %d readahead %d: %d hits, scan LRU %d", capacity, readahead, got.Hits, hits)
			}
		}
	}
}

func TestReadaheadHelpsSequential(t *testing.T) {
	stream := Generate(Sequential, 3, 2048)
	with := NewCacheSim(256).Run(stream, 64)
	without := NewCacheSim(256).Run(stream, 0)
	if with.HitRatio <= without.HitRatio {
		t.Fatalf("readahead hit ratio %.2f not > %.2f", with.HitRatio, without.HitRatio)
	}
}

func TestRandomReadaheadPollutes(t *testing.T) {
	stream := Generate(Zipf, 3, 4096)
	with := NewCacheSim(256).Run(stream, 64)
	without := NewCacheSim(256).Run(stream, 0)
	if with.Throughput >= without.Throughput {
		t.Fatalf("useless prefetch did not hurt: with=%.0f without=%.0f",
			with.Throughput, without.Throughput)
	}
}

func TestPatternStringsAndReadahead(t *testing.T) {
	if Sequential.String() != "sequential" || Pattern(9).String() == "" {
		t.Fatal("pattern strings wrong")
	}
	if ReadaheadFor(Random) != 0 || ReadaheadFor(Sequential) == 0 {
		t.Fatal("readahead mapping wrong")
	}
}

// The deployed KML loop: classifier-driven readahead on a phase-switching
// application must beat both fixed configurations — with the classifier in
// the loop, not ground truth.
func TestClosedLoopAdaptiveBeatsFixed(t *testing.T) {
	rt := boot(t)
	net, _, err := Train(13, Dataset(13, 50), 12)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(rt, net)
	if err != nil {
		t.Fatal(err)
	}
	// Scan -> point lookups -> scan -> hot-set lookups, like a compaction
	// cycle interleaved with serving.
	phases := []Phase{
		{Sequential, 2048}, {Random, 2048}, {Sequential, 2048}, {Zipf, 2048},
	}
	stream := PhaseWorkload(99, phases)
	var truth []Pattern
	for _, ph := range phases {
		for i := 0; i < ph.Length/WindowLen; i++ {
			truth = append(truth, ph.Pattern)
		}
	}

	adaptive, err := RunAdaptive(c, NewCacheSim(512), stream, truth)
	if err != nil {
		t.Fatal(err)
	}
	fixedBig := RunFixed(NewCacheSim(512), stream, 64)
	fixedOff := RunFixed(NewCacheSim(512), stream, 0)

	if acc := float64(adaptive.Correct) / float64(adaptive.Reclassifications); acc < 0.8 {
		t.Fatalf("in-loop classification accuracy = %.2f", acc)
	}
	if adaptive.Throughput <= fixedBig.Throughput {
		t.Fatalf("adaptive %.0f not > fixed-64 %.0f acc/s", adaptive.Throughput, fixedBig.Throughput)
	}
	if adaptive.Throughput <= fixedOff.Throughput {
		t.Fatalf("adaptive %.0f not > fixed-off %.0f acc/s", adaptive.Throughput, fixedOff.Throughput)
	}
	if adaptive.InferenceTime <= 0 || adaptive.Reclassifications == 0 {
		t.Fatal("no classification work recorded")
	}
}

func TestRunAdaptiveValidation(t *testing.T) {
	rt := boot(t)
	c, err := New(rt, nn.New(1, Sizes()...))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunAdaptive(c, NewCacheSim(16), []int64{1, 2}, nil); err == nil {
		t.Fatal("short stream accepted")
	}
}

func TestPhaseWorkloadComposition(t *testing.T) {
	stream := PhaseWorkload(1, []Phase{{Sequential, 100}, {Random, 50}})
	if len(stream) != 150 {
		t.Fatalf("stream = %d accesses, want 150", len(stream))
	}
}
