// Scenario tests for the online model lifecycle, exercised from outside
// the package through the same surfaces laked uses: a LinnOS predictor
// whose serving network is hot-swapped while inference traffic is in
// flight, and a rerated trace whose shifted latency distribution the
// in-daemon trainer must chase while a frozen model falls behind.
package lifecycle_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"lakego/internal/core"
	"lakego/internal/lifecycle"
	"lakego/internal/linnos"
	"lakego/internal/nn"
	"lakego/internal/trace"
)

func bootRT(t *testing.T) *core.Runtime {
	t.Helper()
	rt, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// pinnedNet builds a Base-shaped network whose final layer ignores its
// input and always answers class. Two such nets give every inference a
// detectable version identity: any mixed-version batch would contain
// both answers.
func pinnedNet(class int) *nn.Network {
	net := nn.New(1, linnos.Base.Sizes()...)
	last := len(net.Layers) - 1
	for i := range net.Layers[last].W {
		net.Layers[last].W[i] = 0
	}
	for i := range net.Layers[last].B {
		net.Layers[last].B[i] = 0
	}
	net.Layers[last].B[class] = 1000
	return net
}

// TestHotSwapUnderLoadZeroDroppedZeroMixed pins the ISSUE's core
// invariant: with inference workers hammering InferCPU while another
// goroutine flips the serving network, every submitted batch completes
// and every batch is uniformly one version — the swap is a single
// atomic pointer flip observed at most once per batch. Run under -race
// in CI's chaos job.
func TestHotSwapUnderLoadZeroDroppedZeroMixed(t *testing.T) {
	rt := bootRT(t)
	fast := pinnedNet(0) // logits favor "not slow"
	slow := pinnedNet(1) // logits favor "slow"
	pred, err := linnos.NewPredictor(rt, linnos.Base, fast)
	if err != nil {
		t.Fatal(err)
	}

	probe := make([][]float32, 64)
	for i := range probe {
		probe[i] = make([]float32, linnos.InputWidth)
	}

	const workers = 4
	const batchesPerWorker = 300
	var submitted, completed, mixed, short atomic.Uint64

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		nets := [2]*nn.Network{fast, slow}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := pred.SwapNet(nets[i%2]); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batchesPerWorker; b++ {
				submitted.Add(1)
				out, _ := pred.InferCPU(probe)
				if len(out) != len(probe) {
					short.Add(1)
					continue
				}
				for _, v := range out[1:] {
					if v != out[0] {
						mixed.Add(1)
					}
				}
				completed.Add(1)
			}
		}()
	}
	wg.Wait()
	close(stop)
	swapper.Wait()

	if got, want := completed.Load(), uint64(workers*batchesPerWorker); got != want {
		t.Fatalf("completed %d of %d submitted (%d short)", got, want, short.Load())
	}
	if submitted.Load() != completed.Load() {
		t.Fatalf("dropped inferences: submitted %d, completed %d", submitted.Load(), completed.Load())
	}
	if mixed.Load() != 0 {
		t.Fatalf("%d predictions disagreed within their batch: a swap mixed versions mid-batch", mixed.Load())
	}
}

// TestOnlineRetrainBeatsFrozenOnReratedTrace is the ISSUE's acceptance
// scenario. A LinnOS model trained offline on the Azure profile is
// frozen; the same weights seed a lifecycle manager that observes a 3x
// rerated reissue of the trace (heavier queueing shifts the latency
// distribution, so the old decision boundary degrades). The online
// trainer must promote at least one retrained version, drop nothing,
// and score strictly better than the frozen model on held-out samples
// from the rerated stream.
func TestOnlineRetrainBeatsFrozenOnReratedTrace(t *testing.T) {
	rt := bootRT(t)

	// Offline phase: train on the original-rate trace.
	orig := trace.Azure().Generate(21, 4000)
	origSamples, _ := linnos.CollectSamples(21, orig)
	frozen, _, err := linnos.Train(linnos.Base, 7, origSamples, 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}

	// Reissue phase: same profile at 3x arrival rate, fresh device.
	reissue := trace.Azure().Rerate(3).Generate(22, 6000)
	reSamples, _ := linnos.CollectSamples(22, reissue)
	if len(reSamples) < 1000 {
		t.Fatalf("only %d reissue samples", len(reSamples))
	}
	// Interleave the split: under 3x rerate the device queue deepens over
	// the trace, so a tail holdout would be a different distribution than
	// the stream. Every 5th sample is held out, the rest are streamed.
	var stream, holdout []linnos.Sample
	for i, s := range reSamples {
		if i%5 == 4 {
			holdout = append(holdout, s)
		} else {
			stream = append(stream, s)
		}
	}

	pred, err := linnos.NewPredictor(rt, linnos.Base, frozen.Clone())
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := lifecycle.New(rt, "linnos-base", frozen.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Attach(pred.SwapNet); err != nil {
		t.Fatal(err)
	}

	for _, s := range stream {
		isSlow, _ := pred.InferCPU([][]float32{s.X})
		o := lifecycle.Outcome{X: s.X, Predicted: b2i(isSlow[0]), Label: b2i(s.Slow)}
		if !mgr.Observe(o) {
			t.Fatal("bounded feedback channel dropped despite inline pumping")
		}
		mgr.Pump()
	}

	st := mgr.Stats()
	if st.Swaps == 0 {
		t.Fatalf("online trainer never promoted a retrained version: %+v", st)
	}
	if st.Dropped != 0 {
		t.Fatalf("dropped %d feedback samples", st.Dropped)
	}

	score := func(net *nn.Network) int {
		hits := 0
		for _, s := range holdout {
			if (net.Predict(s.X) == 1) == s.Slow {
				hits++
			}
		}
		return hits
	}
	frozenHits := score(frozen)
	// The predictor serves whatever the manager last promoted: score
	// through the live net to prove the Attach wiring, not a copy.
	onlineHits := score(pred.Net())
	t.Logf("holdout %d: frozen %d (%.3f), online-retrained %d (%.3f), swaps %d",
		len(holdout), frozenHits, float64(frozenHits)/float64(len(holdout)),
		onlineHits, float64(onlineHits)/float64(len(holdout)), st.Swaps)
	if onlineHits <= frozenHits {
		t.Fatalf("online-retrained model (%d/%d) does not beat frozen (%d/%d) on the rerated holdout",
			onlineHits, len(holdout), frozenHits, len(holdout))
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
