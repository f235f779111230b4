// Package kleio reproduces the page warmth classification workload (§7.2):
// Kleio's LSTM-based page scheduler ported from TensorFlow to a kernel
// module through LAKE's high-level API remoting (§4.4).
//
// Two things are modeled faithfully. First, the machinery: because Kleio is
// "implemented using TensorFlow", the kernel side cannot call cuLaunchKernel
// directly — it invokes a custom high-level API ("kleio_infer") that lakeD
// realizes against the ML framework, with page histories staged in lakeShm.
// Second, the timing: TensorFlow session dispatch dominates small batches,
// so inference time is a large fixed cost plus a per-page term (Fig 9's
// 100-300 ms range over 20-1160 pages), and "data movement is handled
// synchronously by TensorFlow", which is why the paper plots only the
// synchronous variant.
package kleio

import (
	"fmt"
	"math/rand"
	"time"

	"lakego/internal/core"
	"lakego/internal/cuda"
	"lakego/internal/nn"
	"lakego/internal/shm"
)

// HistoryLen is the number of past access-count intervals fed to the LSTM
// per page.
const HistoryLen = 16

// HiddenSize is the LSTM hidden width (two layers, following Kleio).
const HiddenSize = 32

// MaxPages bounds one inference batch (Fig 9 sweeps to 1160).
const MaxPages = 2048

// APIName is the high-level API registered in lakeD.
const APIName = "kleio_infer"

// Timing model for the remoted TensorFlow path, calibrated to Fig 9:
// ~100 ms at 20 pages rising to ~300 ms at 1160 pages. The fixed term is
// TF session dispatch + kernel autotuning; the per-page term covers the
// LSTM sequence math at GPU occupancy typical for small recurrent models.
const (
	tfFixedGPU   = 95 * time.Millisecond
	tfPerPageGPU = 175 * time.Microsecond
	// CPU inference of the same TensorFlow stack (for the §7.2 claim that
	// GPU gives "significant speedup ... instead of CPUs"). Session
	// dispatch overhead applies on the CPU as well, which is why Table 3
	// puts the GPU crossover at batch 1: even a single page classifies
	// faster on the accelerator.
	tfFixedCPU = 120 * time.Millisecond
	cpuPerPage = 2500 * time.Microsecond
)

// Classifier is the kernel-side handle to the remoted Kleio model.
type Classifier struct {
	rt    *core.Runtime
	model *nn.LSTM
	inBuf shm.Buffer
	out   shm.Buffer
}

// New trains nothing (Kleio trains offline); it builds the LSTM with
// deterministic weights, registers the high-level API in lakeD and stages
// shared buffers.
func New(rt *core.Runtime, seed int64) (*Classifier, error) {
	c := &Classifier{
		rt:    rt,
		model: nn.NewLSTM(seed, 1, []int{HiddenSize, HiddenSize}, 2),
	}
	var err error
	if c.inBuf, err = rt.Region().Alloc(4 * HistoryLen * MaxPages); err != nil {
		return nil, err
	}
	if c.out, err = rt.Region().Alloc(MaxPages); err != nil {
		return nil, err
	}
	rt.Daemon().RegisterHighLevel(APIName, c.handler)
	return c, nil
}

// handler is the lakeD-side realization: decode page histories from the
// shared region, run the real LSTM, write hot/cold bytes back, and charge
// the TensorFlow-on-GPU cost model.
func (c *Classifier) handler(api *cuda.API, region *shm.Region, args []uint64, blob []byte) ([]uint64, []byte, cuda.Result) {
	if len(args) != 3 {
		return nil, nil, cuda.ErrInvalidValue
	}
	inOff, outOff, pages := int64(args[0]), int64(args[1]), int(args[2])
	if pages <= 0 || pages > MaxPages {
		return nil, nil, cuda.ErrInvalidValue
	}
	in, err := region.At(inOff, int64(4*HistoryLen*pages))
	if err != nil {
		return nil, nil, cuda.ErrInvalidValue
	}
	out, err := region.At(outOff, int64(pages))
	if err != nil {
		return nil, nil, cuda.ErrInvalidValue
	}
	flat, err := cuda.Float32s(in, HistoryLen*pages)
	if err != nil {
		return nil, nil, cuda.ErrInvalidValue
	}
	// TensorFlow moves data and runs the session; LAKE only sees the one
	// high-level call (hence "sync." in Fig 9).
	api.Device().Execute("kernel-kleio", tfFixedGPU+time.Duration(pages)*tfPerPageGPU, func() {
		for p := 0; p < pages; p++ {
			out[p] = byte(c.model.Predict(flat[p*HistoryLen : (p+1)*HistoryLen]))
		}
	})
	return []uint64{uint64(pages)}, nil, cuda.Success
}

// PageHistory is one page's recent access counts, oldest first.
type PageHistory [HistoryLen]float32

// ClassifyLAKE classifies the batch through the remoted high-level API and
// returns per-page hotness plus the modeled inference time (Fig 9's series).
func (c *Classifier) ClassifyLAKE(pages []PageHistory) ([]bool, time.Duration, error) {
	n := len(pages)
	if n == 0 {
		return nil, 0, nil
	}
	if n > MaxPages {
		return nil, 0, fmt.Errorf("kleio: %d pages exceeds max %d", n, MaxPages)
	}
	flat := make([]float32, 0, n*HistoryLen)
	for i := range pages {
		flat = append(flat, pages[i][:]...)
	}
	if err := cuda.PutFloat32s(c.inBuf.Bytes(), flat); err != nil {
		return nil, 0, err
	}
	start := c.rt.Clock().Now()
	vals, _, r := c.rt.Lib().CallHighLevel(APIName, []uint64{
		uint64(c.inBuf.Offset()), uint64(c.out.Offset()), uint64(n),
	}, nil)
	if r != cuda.Success {
		return nil, 0, r.Err()
	}
	if len(vals) != 1 || vals[0] != uint64(n) {
		return nil, 0, fmt.Errorf("kleio: daemon classified %v pages, want %d", vals, n)
	}
	elapsed := c.rt.Clock().Now() - start
	hot := make([]bool, n)
	for i := range hot {
		hot[i] = c.out.Bytes()[i] == 1
	}
	return hot, elapsed, nil
}

// ClassifyCPU runs the same model on the kernel CPU path, returning the
// modeled cost; used to quantify the GPU speedup of §7.2.
func (c *Classifier) ClassifyCPU(pages []PageHistory) ([]bool, time.Duration) {
	hot := make([]bool, len(pages))
	for p := range pages {
		hot[p] = c.model.Predict(pages[p][:]) == 1
	}
	cost := tfFixedCPU + time.Duration(len(pages))*cpuPerPage
	c.rt.Clock().Advance(cost)
	return hot, cost
}

// --- Page scheduling substrate -------------------------------------------

// AccessPattern generates per-page access counts per interval for the page
// scheduler experiments: a deterministic mix of always-hot, periodic and
// cold pages, the regimes Kleio's LSTM separates better than history-based
// heuristics.
type AccessPattern struct {
	rng    *rand.Rand
	pages  int
	phase  int
	period int
}

// NewAccessPattern creates a pattern over the given number of pages.
func NewAccessPattern(seed int64, pages int) *AccessPattern {
	return &AccessPattern{rng: rand.New(rand.NewSource(seed)), pages: pages, period: 8}
}

// NextInterval returns the access count of every page for the next
// interval. One third of pages are persistently hot, one third pulse with
// a period (hot only in half the phase), one third are cold with noise.
func (a *AccessPattern) NextInterval() []float32 {
	counts := make([]float32, a.pages)
	for p := range counts {
		switch p % 3 {
		case 0: // hot
			counts[p] = float32(40 + a.rng.Intn(20))
		case 1: // periodic
			if (a.phase/(a.period/2))%2 == 0 {
				counts[p] = float32(30 + a.rng.Intn(20))
			} else {
				counts[p] = float32(a.rng.Intn(3))
			}
		default: // cold
			counts[p] = float32(a.rng.Intn(3))
		}
	}
	a.phase++
	return counts
}

// HotNext reports ground truth for the next interval (used to score
// schedulers): pages whose next-interval count will exceed the hot
// threshold.
func (a *AccessPattern) HotNext() []bool {
	// Peek by generating with a copied phase but stable rng expectation:
	// hot and cold classes are phase-independent; periodic pages toggle by
	// phase.
	hot := make([]bool, a.pages)
	for p := range hot {
		switch p % 3 {
		case 0:
			hot[p] = true
		case 1:
			hot[p] = (a.phase/(a.period/2))%2 == 0
		default:
			hot[p] = false
		}
	}
	return hot
}

// HistoryScheduler is the history-based baseline [Meswani et al.]: a page
// is predicted hot next interval iff its recent average exceeds a
// threshold.
func HistoryScheduler(hist []PageHistory, threshold float32) []bool {
	out := make([]bool, len(hist))
	for i, h := range hist {
		var sum float32
		for _, v := range h[HistoryLen-4:] {
			sum += v
		}
		out[i] = sum/4 > threshold
	}
	return out
}
