// Package kml reproduces the filesystem prefetching workload (§7.4): KML's
// pre-trained neural network that classifies applications by I/O pattern,
// "where each pattern has an optimal readahead configuration", ported to a
// kernel module that uses CUDA through LAKE.
//
// The package contains the full pipeline: a workload generator emitting
// page-access streams for four canonical patterns, window statistics as
// model features, a trained classifier, an LRU page-cache simulator that
// quantifies how much pattern-matched readahead helps (the KML paper's
// RocksDB speedup analogue), and the Fig 11 batch sweep with its crossover
// at 64 inputs.
package kml

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"lakego/internal/batcher"
	"lakego/internal/core"
	"lakego/internal/nn"
	"lakego/internal/offload"
	"lakego/internal/policy"
)

// Pattern is one I/O access class.
type Pattern int

// The four access classes the classifier separates.
const (
	Sequential Pattern = iota
	Random
	Strided
	Zipf
)

var patternNames = [...]string{"sequential", "random", "strided", "zipf"}

func (p Pattern) String() string {
	if p >= 0 && int(p) < len(patternNames) {
		return patternNames[p]
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// Patterns lists all classes.
func Patterns() []Pattern { return []Pattern{Sequential, Random, Strided, Zipf} }

// ReadaheadFor maps a predicted pattern to its readahead window in pages —
// the per-class "optimal readahead configuration". Forward-moving streams
// (sequential, short-stride) want a large window; reuse-heavy and random
// streams want prefetching off, since speculative pages only evict the
// working set.
func ReadaheadFor(p Pattern) int {
	switch p {
	case Sequential, Strided:
		return 64
	default: // Random, Zipf: prefetching only pollutes the cache
		return 0
	}
}

// WindowLen is the number of page accesses summarized per feature vector.
const WindowLen = 64

// InputWidth is the feature vector width.
const InputWidth = 10

// Sizes is the KML classifier shape.
func Sizes() []int { return []int{InputWidth, 128, len(patternNames)} }

// MaxBatch bounds one classification batch.
const MaxBatch = 1024

// Kernel-space CPU cost, calibrated so the Fig 11 crossover against the
// LAKE async path (~70 µs fixed) lands at batch 64 ("The GPU is profitable
// [when] more than 64 inputs are batched").
const (
	cpuFixed   = 2 * time.Microsecond
	cpuPerItem = 1100 * time.Nanosecond
)

// Generate emits a page-access stream of the given pattern.
func Generate(p Pattern, seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	var pos int64 = 1 << 20
	const space = 1 << 24
	switch p {
	case Sequential:
		for i := range out {
			pos++
			if rng.Float64() < 0.02 { // occasional seek
				pos = rng.Int63n(space)
			}
			out[i] = pos
		}
	case Random:
		for i := range out {
			out[i] = rng.Int63n(space)
		}
	case Strided:
		stride := int64(7 + rng.Intn(9))
		for i := range out {
			pos += stride
			if rng.Float64() < 0.02 {
				pos = rng.Int63n(space)
			}
			out[i] = pos
		}
	case Zipf:
		z := rand.NewZipf(rng, 1.2, 1, space-1)
		for i := range out {
			out[i] = int64(z.Uint64())
		}
	}
	return out
}

// Features summarizes a window of page accesses into the model's input:
// forward-seq fraction, unit-step fraction, constant-stride fraction, mean
// and dispersion of gaps, reuse statistics.
func Features(window []int64) []float32 {
	f := make([]float32, InputWidth)
	if len(window) < 2 {
		return f
	}
	gaps := make([]float64, 0, len(window)-1)
	seen := make(map[int64]int, len(window))
	var fwd, unit int
	strideCount := map[int64]int{}
	reuses := 0
	for i, pg := range window {
		if c := seen[pg]; c > 0 {
			reuses++
		}
		seen[pg]++
		if i == 0 {
			continue
		}
		g := window[i] - window[i-1]
		gaps = append(gaps, float64(g))
		if g > 0 {
			fwd++
		}
		if g == 1 {
			unit++
		}
		strideCount[g]++
	}
	n := float64(len(gaps))
	var mean, absMean float64
	for _, g := range gaps {
		mean += g
		absMean += math.Abs(g)
	}
	mean /= n
	absMean /= n
	var variance float64
	for _, g := range gaps {
		variance += (g - mean) * (g - mean)
	}
	variance /= n
	// Deterministic tie-break (map order varies): prefer the smaller
	// absolute stride so the feature is stable run to run.
	maxStride, maxStrideCnt := int64(0), 0
	for s, c := range strideCount {
		abs := s
		if abs < 0 {
			abs = -abs
		}
		cur := maxStride
		if cur < 0 {
			cur = -cur
		}
		if c > maxStrideCnt || (c == maxStrideCnt && abs < cur) {
			maxStride, maxStrideCnt = s, c
		}
	}
	uniq := float64(len(seen))

	// Log-scale magnitudes are normalized by log1p(2^24) so every feature
	// lands in ~[0,1]; without this the magnitude features swamp the
	// fraction features and SGD conditions poorly.
	const logNorm = 16.7
	f[0] = float32(float64(fwd) / n)                                   // forward fraction
	f[1] = float32(float64(unit) / n)                                  // unit-stride fraction
	f[2] = float32(float64(maxStrideCnt) / n)                          // dominant-stride fraction
	f[3] = float32(math.Log1p(math.Abs(float64(maxStride))) / logNorm) // dominant stride magnitude
	f[4] = float32(math.Log1p(absMean) / logNorm)                      // mean |gap|
	f[5] = float32(math.Log1p(math.Sqrt(variance)) / logNorm)          // gap dispersion
	f[6] = float32(float64(reuses) / float64(len(window)))             // reuse fraction
	f[7] = float32(uniq / float64(len(window)))                        // uniqueness
	f[8] = float32(math.Log1p(math.Abs(mean)) / logNorm)               // signed mean gap
	if mean < 0 {
		f[9] = 1 // backward drift
	}
	return f
}

// Sample is one labeled feature vector.
type Sample struct {
	X     []float32
	Label Pattern
}

// Dataset synthesizes labeled windows for every pattern.
func Dataset(seed int64, perClass int) []Sample {
	var out []Sample
	for _, p := range Patterns() {
		stream := Generate(p, seed+int64(p), perClass*WindowLen)
		for w := 0; w+WindowLen <= len(stream); w += WindowLen {
			out = append(out, Sample{X: Features(stream[w : w+WindowLen]), Label: p})
		}
	}
	return out
}

// Train fits the KML classifier and returns it with training accuracy.
func Train(seed int64, samples []Sample, epochs int) (*nn.Network, float64, error) {
	if len(samples) == 0 {
		return nil, 0, fmt.Errorf("kml: no samples")
	}
	net := nn.New(seed, Sizes()...)
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(samples))
	for e := 0; e < epochs; e++ {
		for at := 0; at < len(idx); at += 32 {
			end := at + 32
			if end > len(idx) {
				end = len(idx)
			}
			xs := make([][]float32, 0, end-at)
			labels := make([]int, 0, end-at)
			for _, i := range idx[at:end] {
				xs = append(xs, samples[i].X)
				labels = append(labels, int(samples[i].Label))
			}
			if _, err := net.TrainBatch(xs, labels, 0.1); err != nil {
				return nil, 0, err
			}
		}
	}
	xs := make([][]float32, len(samples))
	labels := make([]int, len(samples))
	for i, s := range samples {
		xs[i], labels[i] = s.X, int(s.Label)
	}
	return net, net.Accuracy(xs, labels), nil
}

// Classifier is the KML model wired through LAKE. The embedded slot is the
// lifecycle hot-swap hook (Net, SwapNet); the offload runner resolves it
// once per batch, so a swap never mixes versions inside a batch.
type Classifier struct {
	*offload.Slot
	runner *offload.Runner
}

// New wraps a trained network for runtime rt.
func New(rt *core.Runtime, net *nn.Network) (*Classifier, error) {
	if got := net.Sizes(); got[0] != InputWidth || got[len(got)-1] != len(patternNames) {
		return nil, fmt.Errorf("kml: network sizes %v, want %v", got, Sizes())
	}
	slot := offload.NewSlot(net)
	runner, err := offload.NewRunner(rt, slot.Serve(batcher.ModelConfig{
		Name:        "kml_nn",
		InputWidth:  InputWidth,
		OutputWidth: len(patternNames),
		MaxBatch:    MaxBatch,
		CPUFixed:    cpuFixed,
		CPUPerItem:  cpuPerItem,
	}))
	if err != nil {
		return nil, err
	}
	return &Classifier{Slot: slot, runner: runner}, nil
}

// ClassifyCPU predicts patterns on the kernel CPU path.
func (c *Classifier) ClassifyCPU(batch [][]float32) ([]Pattern, time.Duration) {
	out, d := c.runner.RunCPU(batch)
	return argmaxAll(out), d
}

// ClassifyLAKE predicts patterns through LAKE.
func (c *Classifier) ClassifyLAKE(batch [][]float32, sync bool) ([]Pattern, time.Duration, error) {
	out, d, err := c.runner.RunLAKE(batch, sync)
	if err != nil {
		return nil, 0, err
	}
	return argmaxAll(out), d, nil
}

// ClassifyAuto routes the batch through pol and classifies on the decided
// path, falling back to the kernel CPU path when lakeD is unavailable — a
// readahead decision is still due even with the accelerator service down.
// The returned Decision is the path that ran.
func (c *Classifier) ClassifyAuto(batch [][]float32, pol policy.Func) ([]Pattern, policy.Decision, time.Duration, error) {
	out, dec, d, err := c.runner.RunAuto(batch, pol)
	if err != nil {
		return nil, dec, 0, err
	}
	return argmaxAll(out), dec, d, nil
}

func argmaxAll(out [][]float32) []Pattern {
	res := make([]Pattern, len(out))
	for i, y := range out {
		best := 0
		for j, v := range y {
			if v > y[best] {
				best = j
			}
		}
		res[i] = Pattern(best)
	}
	return res
}

// Sweep produces the Fig 11 series.
func Sweep(c *Classifier, batches []int) ([]offload.SweepPoint, error) {
	streams := make([][]int64, len(patternNames))
	for _, p := range Patterns() {
		streams[p] = Generate(p, 99, WindowLen*4)
	}
	return offload.Sweep(c.runner, batches, func(i int) []float32 {
		p := Pattern(i % len(patternNames))
		off := (i % 4) * WindowLen
		return Features(streams[p][off : off+WindowLen])
	})
}

// --- Readahead cache simulator --------------------------------------------

// CacheSim measures how a readahead window performs against an access
// stream on an LRU page cache: the substrate for showing pattern-matched
// readahead beats a fixed configuration.
type CacheSim struct {
	capacity int
	lru      map[int64]int // page -> last-use tick
	tick     int
}

// NewCacheSim creates an LRU page cache of the given capacity (pages).
func NewCacheSim(capacity int) *CacheSim {
	return &CacheSim{capacity: capacity, lru: make(map[int64]int, capacity)}
}

func (c *CacheSim) touch(pg int64) {
	c.tick++
	if len(c.lru) >= c.capacity {
		if _, ok := c.lru[pg]; !ok {
			// Evict least recently used.
			var victim int64
			oldest := math.MaxInt
			for p, t := range c.lru {
				if t < oldest {
					victim, oldest = p, t
				}
			}
			delete(c.lru, victim)
		}
	}
	c.lru[pg] = c.tick
}

// CacheResult reports a run's hit statistics and modeled throughput.
type CacheResult struct {
	Hits, Misses int
	Prefetched   int
	HitRatio     float64
	// Throughput is accesses per second under a 100µs miss / 1µs hit
	// cost model with prefetches overlapped at half cost.
	Throughput float64
}

// Run replays the stream with the given readahead window.
func (c *CacheSim) Run(stream []int64, readahead int) CacheResult {
	var res CacheResult
	for _, pg := range stream {
		if _, ok := c.lru[pg]; ok {
			res.Hits++
			c.touch(pg)
			continue
		}
		res.Misses++
		c.touch(pg)
		for i := 1; i <= readahead; i++ {
			c.touch(pg + int64(i))
			res.Prefetched++
		}
	}
	total := res.Hits + res.Misses
	if total == 0 {
		return res
	}
	res.HitRatio = float64(res.Hits) / float64(total)
	const missCost, hitCost, prefetchCost = 100e-6, 1e-6, 0.4e-6
	secs := float64(res.Misses)*missCost + float64(res.Hits)*hitCost +
		float64(res.Prefetched)*prefetchCost
	res.Throughput = float64(total) / secs
	return res
}
