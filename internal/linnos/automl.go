package linnos

import (
	"fmt"
	"time"
)

// This file implements the extension the paper proposes as future work in
// §7.1: "given that even the original CPU-based model actually harms
// performance when applications do not stress the device, some mechanism to
// modulate the use of ML even on the CPU is a likely necessity. We believe
// the same framework LAKE provides for managing contention and selecting
// between CPU and GPU can be used to implement policies that avoid using ML
// when it does not help".
//
// BenefitMonitor is that policy: an A/B sampling controller. While ML is
// enabled, a sparse control group of reads bypasses prediction; while
// disabled, a sparse probe group keeps exercising it. The two groups'
// latencies are compared as aged arithmetic means: storage latency is
// heavy-tailed and ML's benefit is concentrated in rare stall windows, so
// the comparison uses the same statistic the operator cares about (the
// mean, as in Fig 7) accumulated over whole epochs, with exponential
// forgetting between epochs so regime changes are still tracked.

// The monitor's evaluation settings.
const (
	// controlEvery routes every Nth read to the opposite treatment for
	// measurement.
	controlEvery = 8
	// margin is the hysteresis band: ML turns off only when its mean is
	// at least margin fraction worse than baseline, and on only when at
	// least margin better.
	margin = 0.05
	// minSamples is the minimum effective sample count per group before a
	// decision.
	minSamples = 48
	// evalEvery evaluates the decision (and ages the accumulators by half)
	// once per this many recorded reads.
	evalEvery = 512
	// confirmEvals requires the comparison to point the same way for this
	// many consecutive evaluations before flipping, suppressing chatter
	// from heavy-tailed epoch noise.
	confirmEvals = 2
)

// BenefitMonitor decides, online, whether ML-driven reissue helps.
type BenefitMonitor struct {
	sumML, sumCtrl float64 // aged latency sums (µs)
	nML, nCtrl     float64 // aged sample counts

	enabled  bool
	streak   int // consecutive evals pointing against the current decision
	recorded int
	idx      int
	flips    int
	mlUsed   int
	totalIOs int
}

// NewBenefitMonitor starts with ML enabled (optimistic, like deploying the
// predictor and letting measurement veto it).
func NewBenefitMonitor() *BenefitMonitor {
	return &BenefitMonitor{enabled: true}
}

// Enabled reports the current decision.
func (m *BenefitMonitor) Enabled() bool { return m.enabled }

// Flips reports how many times the decision changed.
func (m *BenefitMonitor) Flips() int { return m.flips }

// MLFraction reports the fraction of reads that took the ML path.
func (m *BenefitMonitor) MLFraction() float64 {
	if m.totalIOs == 0 {
		return 0
	}
	return float64(m.mlUsed) / float64(m.totalIOs)
}

// NextUseML returns whether the next read should take the ML path. The
// majority follows the current decision; every controlEvery-th read takes
// the opposite treatment to keep both estimates alive.
func (m *BenefitMonitor) NextUseML() bool {
	m.idx++
	m.totalIOs++
	useML := m.enabled
	if m.idx%controlEvery == 0 {
		useML = !useML
	}
	if useML {
		m.mlUsed++
	}
	return useML
}

// Record feeds back one read's latency under the treatment it received.
// Decisions happen once per evalEvery records, on aged group means.
func (m *BenefitMonitor) Record(usedML bool, lat time.Duration) {
	v := float64(lat.Microseconds())
	if usedML {
		m.sumML += v
		m.nML++
	} else {
		m.sumCtrl += v
		m.nCtrl++
	}
	m.recorded++
	if m.recorded%evalEvery != 0 {
		return
	}
	if m.nML >= minSamples && m.nCtrl >= minSamples {
		mlMean := m.sumML / m.nML
		ctrlMean := m.sumCtrl / m.nCtrl
		against := (m.enabled && mlMean > ctrlMean*(1+margin)) ||
			(!m.enabled && mlMean < ctrlMean*(1-margin))
		if against {
			m.streak++
			if m.streak >= confirmEvals {
				m.enabled = !m.enabled
				m.flips++
				m.streak = 0
			}
		} else {
			m.streak = 0
		}
	}
	// Age the accumulators: old epochs decay geometrically so regime
	// changes surface within a few epochs.
	m.sumML /= 2
	m.nML /= 2
	m.sumCtrl /= 2
	m.nCtrl /= 2
}

// AutoMLResult extends a replay result with modulation statistics.
type AutoMLResult struct {
	Result
	// MLFraction is the share of reads that took the ML path.
	MLFraction float64
	// FinalEnabled is the monitor's decision at the end of the replay.
	FinalEnabled bool
	// Flips counts decision changes.
	Flips int
}

// ReplayAutoML replays a workload with the benefit-aware modulation policy
// wrapped around the CPU model path: reads take ML-driven reissue only while
// the monitor believes it helps.
func ReplayAutoML(pred *Predictor, w Workload, cfg ReplayConfig) (AutoMLResult, error) {
	if pred == nil {
		return AutoMLResult{}, fmt.Errorf("linnos: automl replay requires a predictor")
	}
	cfg.Mode = ModeCPU
	monitor := NewBenefitMonitor()
	res, err := replay(pred, w, cfg, monitor)
	if err != nil {
		return AutoMLResult{}, err
	}
	res.Config = fmt.Sprintf("%s auto-ml", pred.Kind())
	return AutoMLResult{
		Result:       res,
		MLFraction:   monitor.MLFraction(),
		FinalEnabled: monitor.Enabled(),
		Flips:        monitor.Flips(),
	}, nil
}
