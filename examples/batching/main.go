// batching demonstrates the cross-client inference batching subsystem:
// many kernel-side clients (here, per-queue LinnOS latency classifiers)
// each produce a trickle of single-I/O requests — individually far below
// the Fig 8 batching crossover — and lakeD's batcher coalesces them into
// dynamically formed GPU launches under a max-wait flush deadline.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	lake "lakego"
	"lakego/internal/linnos"
	"lakego/internal/nn"
)

const (
	clients   = 24
	perClient = 50
	maxWait   = 200 * time.Microsecond
)

func feature(ci, r int) []float32 {
	return linnos.FeatureVector((ci*13+r*5)%89, []time.Duration{
		time.Duration((ci+r)%9) * 250 * time.Microsecond,
	})
}

func main() {
	rt, err := lake.New(lake.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	pred, err := linnos.NewPredictor(rt, linnos.Base, nn.New(3, linnos.Base.Sizes()...))
	if err != nil {
		log.Fatal(err)
	}

	// Baseline: each client remotes its own single-I/O batches.
	fmt.Printf("%d clients x %d single-I/O classifications each\n\n", clients, perClient)
	t0 := rt.Clock().Now()
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				if _, _, err := pred.InferLAKE([][]float32{feature(ci, r)}, true); err != nil {
					log.Fatal(err)
				}
			}
		}(ci)
	}
	wg.Wait()
	unbatched := rt.Clock().Now() - t0
	fmt.Printf("unbatched remoting: %v virtual time (%.0f req/s)\n",
		unbatched, float64(clients*perClient)/unbatched.Seconds())

	// Batched: the same load through one shared Batcher. The adaptive
	// policy routes each flush GPU vs CPU exactly as Fig 3 prescribes.
	cfg := lake.DefaultBatcherConfig()
	cfg.MaxWait = maxWait
	b := rt.NewBatcher(cfg)
	if err := pred.Runner().EnableBatching(b); err != nil {
		log.Fatal(err)
	}
	t0 = rt.Clock().Now()
	var (
		worstMu sync.Mutex
		worst   time.Duration
	)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := b.Client(fmt.Sprintf("nvme%d", ci))
			for r := 0; r < perClient; r++ {
				p, err := pred.SubmitBatched(c, [][]float32{feature(ci, r)})
				if err != nil {
					log.Fatal(err)
				}
				if _, err := linnos.WaitSlow(p); err != nil {
					log.Fatal(err)
				}
				worstMu.Lock()
				if l := p.Latency(); l > worst {
					worst = l
				}
				worstMu.Unlock()
			}
		}(ci)
	}
	wg.Wait()
	batched := rt.Clock().Now() - t0
	st := b.Stats()
	fmt.Printf("cross-client batched: %v virtual time (%.0f req/s)\n\n",
		batched, float64(clients*perClient)/batched.Seconds())
	fmt.Printf("speedup: %.1fx\n", unbatched.Seconds()/batched.Seconds())
	fmt.Printf("flushes: %d (avg batch %.1f items; %d full, %d deadline; %d GPU, %d CPU)\n",
		st.Flushes, st.AvgBatch(), st.FullFlushes, st.DeadlineFlushes, st.GPUFlushes, st.CPUFlushes)
	fmt.Printf("worst queue delay %v (deadline %v), worst end-to-end latency %v\n",
		st.MaxQueueDelay, maxWait, worst)
	if st.Rejected > 0 {
		fmt.Printf("backpressure rejections: %d\n", st.Rejected)
	}
}
