package kml

import (
	"fmt"
	"time"
)

// Closed-loop adaptive readahead: the deployed form of KML. The kernel
// observes an application's recent accesses, classifies the pattern with
// the trained model, and sets the readahead window for the next stretch —
// reacting when the application changes phase (the scenario where a fixed
// configuration must lose).

// Phase is one stretch of a synthetic application's life.
type Phase struct {
	Pattern Pattern
	// Accesses in this phase.
	Length int
}

// PhaseWorkload builds an application that alternates between phases, e.g.
// a scan phase followed by point lookups (the RocksDB-like behaviour the
// KML paper targets).
func PhaseWorkload(seed int64, phases []Phase) []int64 {
	var stream []int64
	for i, ph := range phases {
		stream = append(stream, Generate(ph.Pattern, seed+int64(i)*131, ph.Length)...)
	}
	return stream
}

// AdaptiveResult summarizes a closed-loop run.
type AdaptiveResult struct {
	CacheResult
	// Reclassifications counts classifier invocations.
	Reclassifications int
	// InferenceTime is the modeled cost of those classifications.
	InferenceTime time.Duration
	// Correct counts windows classified to the phase's true pattern.
	Correct int
}

// RunAdaptive replays the stream against the cache, re-classifying every
// WindowLen accesses with the model (via the classifier's CPU path — the
// decision is coarse-grained, §7.4) and applying the predicted pattern's
// readahead to the next window. truth, when provided (same length as the
// number of windows), scores classification correctness.
func RunAdaptive(c *Classifier, cache *CacheSim, stream []int64, truth []Pattern) (AdaptiveResult, error) {
	if len(stream) < WindowLen {
		return AdaptiveResult{}, fmt.Errorf("kml: stream shorter than one window")
	}
	var res AdaptiveResult
	readahead := ReadaheadFor(Sequential) // optimistic default, like Linux
	var agg CacheResult
	w := 0
	for at := 0; at+WindowLen <= len(stream); at += WindowLen {
		window := stream[at : at+WindowLen]
		r := cache.Run(window, readahead)
		agg.Hits += r.Hits
		agg.Misses += r.Misses
		agg.Prefetched += r.Prefetched
		// Classify the window just seen; its pattern governs the next.
		preds, d := c.InferCPU([][]float32{Features(window)})
		res.Reclassifications++
		res.InferenceTime += d
		if truth != nil && w < len(truth) && preds[0] == truth[w] {
			res.Correct++
		}
		readahead = ReadaheadFor(preds[0])
		w++
	}
	total := agg.Hits + agg.Misses
	if total > 0 {
		agg.HitRatio = float64(agg.Hits) / float64(total)
		const missCost, hitCost, prefetchCost = 100e-6, 1e-6, 0.4e-6
		secs := float64(agg.Misses)*missCost + float64(agg.Hits)*hitCost +
			float64(agg.Prefetched)*prefetchCost
		agg.Throughput = float64(total) / secs
	}
	res.CacheResult = agg
	return res, nil
}

// RunFixed replays the stream with a constant readahead, the kernel-default
// baseline.
func RunFixed(cache *CacheSim, stream []int64, readahead int) CacheResult {
	return cache.Run(stream, readahead)
}
