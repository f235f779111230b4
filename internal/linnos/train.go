package linnos

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"lakego/internal/nn"
	"lakego/internal/storage"
	"lakego/internal/trace"
)

// Sample is one labeled training record: device state at I/O issue and
// whether the I/O turned out slow.
type Sample struct {
	X    []float32
	Slow bool
}

// CollectSamples profiles a trace against a fresh drive seeded with seed and
// labels each read with whether its latency exceeded the returned threshold
// (the inflection-point style cutoff LinnOS derives from the latency CDF;
// this reproduction uses the 80th percentile).
func CollectSamples(seed int64, reqs []trace.Request) ([]Sample, time.Duration) {
	dev := storage.NewDevice("profile", seed)
	type rec struct {
		x   []float32
		lat time.Duration
	}
	var recs []rec
	for _, r := range reqs {
		if r.Write {
			dev.Submit(r.Arrival, r.Size, true)
			continue
		}
		x := DeviceFeatures(dev, r.Arrival)
		c := dev.Submit(r.Arrival, r.Size, false)
		recs = append(recs, rec{x: x, lat: c.Latency})
	}
	if len(recs) == 0 {
		return nil, 0
	}
	lats := make([]time.Duration, len(recs))
	for i, r := range recs {
		lats[i] = r.lat
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	threshold := lats[len(lats)*80/100]
	samples := make([]Sample, len(recs))
	for i, r := range recs {
		samples[i] = Sample{X: r.x, Slow: r.lat > threshold}
	}
	return samples, threshold
}

// Train fits a fresh network of the given kind to the samples with
// minibatch SGD and returns it with its training-set accuracy.
func Train(kind ModelKind, seed int64, samples []Sample, epochs int, lr float32) (*nn.Network, float64, error) {
	if len(samples) == 0 {
		return nil, 0, fmt.Errorf("linnos: no training samples")
	}
	net := nn.New(seed, kind.Sizes()...)
	rng := rand.New(rand.NewSource(seed))
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	const minibatch = 64
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for at := 0; at < len(idx); at += minibatch {
			end := at + minibatch
			if end > len(idx) {
				end = len(idx)
			}
			xs := make([][]float32, 0, end-at)
			labels := make([]int, 0, end-at)
			for _, i := range idx[at:end] {
				xs = append(xs, samples[i].X)
				label := 0
				if samples[i].Slow {
					label = 1
				}
				labels = append(labels, label)
			}
			if _, err := net.TrainBatch(xs, labels, lr); err != nil {
				return nil, 0, err
			}
		}
	}
	correct := 0
	for _, s := range samples {
		pred := net.Predict(s.X) == 1
		if pred == s.Slow {
			correct++
		}
	}
	return net, float64(correct) / float64(len(samples)), nil
}

// trainedCache memoizes trained networks per kind: the evaluation sweeps
// train each variant once and reuse it across workloads, like the artifact's
// offline training step.
var trainedCache struct {
	sync.Mutex
	nets map[ModelKind]*nn.Network
}

// TrainedNetwork returns a network of the given kind trained on a standard
// profiling corpus (all three Table 4 traces stressing a default device).
// Results are cached per kind for the life of the process.
func TrainedNetwork(kind ModelKind) (*nn.Network, error) {
	trainedCache.Lock()
	defer trainedCache.Unlock()
	if trainedCache.nets == nil {
		trainedCache.nets = make(map[ModelKind]*nn.Network)
	}
	if net, ok := trainedCache.nets[kind]; ok {
		return net, nil
	}
	var samples []Sample
	for i, p := range trace.Profiles() {
		// Rerate to stress the device so slow I/Os actually occur.
		reqs := p.Rerate(3).Generate(int64(100+i), 4000)
		s, _ := CollectSamples(int64(i+1), reqs)
		samples = append(samples, s...)
	}
	net, _, err := Train(kind, 7, samples, 3, 0.05)
	if err != nil {
		return nil, err
	}
	trainedCache.nets[kind] = net
	return net, nil
}
