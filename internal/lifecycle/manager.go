package lifecycle

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"

	"lakego/internal/core"
	"lakego/internal/flightrec"
	"lakego/internal/nn"
	"lakego/internal/telemetry"
)

// Outcome is one observed ground-truth record fed back into the lifecycle:
// the feature vector an inference saw, what the serving model predicted,
// and what the world actually did (for LinnOS: whether the read really
// exceeded the latency threshold; for KML: the pattern the window really
// was). The manager retains X — hand it an owned slice.
type Outcome struct {
	X         []float32
	Predicted int
	Label     int
}

const (
	// learningRate is the SGD learning rate of every retrain step.
	learningRate = 0.05
	// promoteMargin is the accuracy edge (0..1) the candidate must hold
	// over the serving version across the shadow window before it is
	// promoted: ties and noise don't churn versions.
	promoteMargin = 0.02
	// minibatch is how many outcomes one SGD step trains on.
	minibatch = 64
	// roundSamples is how many feedback samples one retrain round consumes
	// before the candidate is shadow-scored for promotion.
	roundSamples = 256
	// feedbackBuffer is the bounded feedback channel's capacity. Offer
	// never blocks: beyond-capacity outcomes are dropped and counted.
	feedbackBuffer = 4096
	// shadowWindow is how many recent outcomes the A-B comparison replays
	// over.
	shadowWindow = 512
	// driftWindow is how many outcomes one drift evaluation window spans.
	driftWindow = 256
	// driftTolerance is the live-accuracy drop below the pinned baseline
	// that marks a window bad.
	driftTolerance = 0.10
	// driftBadWindows is how many consecutive bad windows trigger a
	// demotion: one bad window is weather, two is climate.
	driftBadWindows = 2
)

// Stats snapshots lifecycle activity.
type Stats struct {
	ServingSeq   uint64
	ServingHash  uint64
	Versions     int
	SamplesSeen  uint64
	Dropped      uint64
	RetrainSteps uint64
	Swaps        uint64
	Demotions    uint64
	DriftAlarms  uint64
	Fallback     bool
	// Baseline and LiveAccuracy are the drift detector's pinned reference
	// and the current (partial-window) live accuracy, 0..1.
	Baseline     float64
	LiveAccuracy float64
}

// Manager runs one model's lifecycle: it owns the model's versions and
// serving slot, the online trainer and the drift detector, and applies
// serving flips to the attached predictor.
//
// Concurrency contract: Observe is safe from any goroutine and never
// blocks (a bounded-channel send). Processing — Pump — must run
// from one goroutine at a time; all mutation happens there under one
// mutex, so the feedback order fully determines the trained weights
// (fixed inputs reproduce bit-identical models; the determinism test pins
// this).
type Manager struct {
	rec *flightrec.Recorder
	// inputs and outputs are the layer geometry every version shares:
	// Observe admits only outcomes that fit it.
	inputs, outputs int

	feedback chan Outcome
	healthy  atomic.Bool

	mu    sync.Mutex
	apply func(*nn.Network) error

	// Versions (all under mu): every registered snapshot by content hash,
	// the serving one, and the rollback stack a demotion pops — every
	// promotion pushes the version it displaced.
	serving *Version
	byHash  map[uint64]*Version
	past    []*Version
	nextSeq uint64

	// Online trainer state (all under mu).
	candidate *nn.Network
	scratch   *nn.Scratch
	window    []Outcome // ring of the last shadowWindow outcomes
	wnext     int
	wcount    int
	batchX    [][]float32
	batchY    []int
	roundLeft int

	// Drift detector state (all under mu).
	dHits, dSeen int
	dBad         int
	baseline     float64 // negative = pin from the next completed window

	samplesSeen atomic.Uint64
	evSeq       atomic.Uint64

	// The counters are what Stats reports and what the registry exports.
	registrations, swaps, demotions telemetry.Counter
	retrainSteps, retrainSamples    telemetry.Counter
	driftAlarms, fallbackEnters     telemetry.Counter
	dropped                         telemetry.Counter // malformed, or lost to the bounded feedback channel
	servingVersion                  *telemetry.Gauge
	shadowAccuracy                  *telemetry.Gauge // candidate accuracy, per-mille
}

// New boots the lifecycle manager for one model on rt, seeded with base as
// version 1, already serving; base is snapshotted, so the caller's copy
// stays free. The manager is wired into the runtime's flight recorder
// (lifecycle events land in the DomainLifecycle ring) and its telemetry
// (model="..."-labelled swap / retrain / drift series plus the
// serving-version gauge). Attach the predictor's SwapNet and feed Observe
// from the completion path; a health plane on rt reads the manager's
// demotions from those lifecycle events.
func New(rt *core.Runtime, model string, base *nn.Network) (*Manager, error) {
	if base == nil {
		return nil, errors.New("lifecycle: nil base network")
	}
	m := newManager(base)
	m.rec = rt.FlightRecorder()
	m.instrument(rt.Telemetry(), rt.Namer(`model="`+model+`"`))
	return m, nil
}

// newManager builds the manager New wires to a runtime. Unwired, it records
// no events and sets no gauges.
func newManager(base *nn.Network) *Manager {
	m := &Manager{
		inputs:    base.InputSize(),
		outputs:   base.OutputSize(),
		feedback:  make(chan Outcome, feedbackBuffer),
		byHash:    make(map[uint64]*Version),
		window:    make([]Outcome, 0, shadowWindow),
		batchX:    make([][]float32, 0, minibatch),
		batchY:    make([]int, 0, minibatch),
		roundLeft: roundSamples,
		baseline:  -1,
	}
	m.serving = m.register(base)
	m.candidate = base.Clone()
	m.scratch = nn.NewScratch(m.candidate)
	m.healthy.Store(true)
	return m
}

// instrument declares the manager's series on reg; name carries the
// model="..." label.
func (m *Manager) instrument(reg *telemetry.Registry, name telemetry.Namer) {
	reg.AttachCounter(name("lake_model_registrations_total"), "Distinct model versions added to the registry; a byte-identical snapshot reuses its version.", &m.registrations)
	reg.AttachCounter(name("lake_model_swaps_total"), "Serving-slot flips (promotions, demotions, rollbacks).", &m.swaps)
	reg.AttachCounter(name("lake_model_retrain_steps_total"), "Online SGD minibatch steps run in lakeD.", &m.retrainSteps)
	reg.AttachCounter(name("lake_model_retrain_samples_total"), "Feedback samples consumed by online retraining.", &m.retrainSamples)
	reg.AttachCounter(name("lake_model_drift_alarms_total"), "Drift windows whose live accuracy fell below the pinned baseline.", &m.driftAlarms)
	reg.AttachCounter(name("lake_model_demotions_total"), "Drift-driven rollbacks to the previous serving version.", &m.demotions)
	reg.AttachCounter(name("lake_model_fallback_total"), "Times the model went unhealthy and routing fell back to the CPU/heuristic path.", &m.fallbackEnters)
	reg.AttachCounter(name("lake_model_feedback_dropped_total"), "Outcomes rejected as malformed (wrong width, label out of range, NaN or infinite feature) or dropped by the full feedback channel.", &m.dropped)
	m.servingVersion = reg.Gauge(name("lake_model_serving_version"), "Sequence number of the serving model version.")
	m.shadowAccuracy = reg.Gauge(name("lake_model_shadow_accuracy_permille"), "Candidate accuracy over the last shadow window (per-mille).")
	m.servingVersion.Set(int64(m.serving.Seq))
}

// Attach registers the hot-swap hook — typically linnos.(*Predictor).SwapNet
// or kml.(*Classifier).SwapNet — and immediately applies the current
// serving version so the predictor and the manager agree from the start.
func (m *Manager) Attach(apply func(*nn.Network) error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.apply = apply
	if apply != nil {
		return apply(m.serving.net)
	}
	return nil
}

// Healthy reports whether the model path should be used at all; false
// means drift exhausted every registered version and routing should stay
// on the CPU/heuristic path.
func (m *Manager) Healthy() bool { return m.healthy.Load() }

// Observe offers one outcome to the lifecycle. Never blocks: an outcome
// whose X is not the model's input width or holds a NaN or infinite
// feature, or whose Label is not one of its classes, is rejected, and one
// that finds the bounded feedback channel full is dropped; both are
// counted (the hot path must not back-pressure on the trainer). Reports
// whether the outcome was accepted.
func (m *Manager) Observe(o Outcome) bool {
	if len(o.X) != m.inputs || o.Label < 0 || o.Label >= m.outputs || !finite(o.X) {
		m.dropped.Inc()
		return false
	}
	select {
	case m.feedback <- o:
		return true
	default:
		m.dropped.Inc()
		return false
	}
}

// finite reports whether every feature of x is a number: one NaN or
// infinite feature would turn the candidate's weights NaN for good.
func finite(x []float32) bool {
	for _, v := range x {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return false
		}
	}
	return true
}

// Pump drains and processes every buffered outcome, returning how many it
// consumed. Call it from the daemon's service loop (or tests); processing
// is strictly FIFO, so a fixed Observe sequence yields a bit-identical
// trained model.
func (m *Manager) Pump() int {
	n := 0
	for {
		select {
		case o := <-m.feedback:
			m.process(o)
			n++
		default:
			return n
		}
	}
}

func (m *Manager) process(o Outcome) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.samplesSeen.Add(1)

	// Drift: live accuracy of what was actually served.
	m.dSeen++
	if o.Predicted == o.Label {
		m.dHits++
	}
	if m.dSeen >= driftWindow {
		m.closeDriftWindow()
	}

	// Shadow window ring.
	if len(m.window) < shadowWindow {
		m.window = append(m.window, o)
	} else {
		m.window[m.wnext] = o
	}
	m.wnext = (m.wnext + 1) % shadowWindow
	if m.wcount < shadowWindow {
		m.wcount++
	}

	// Online SGD on the candidate.
	m.batchX = append(m.batchX, o.X)
	m.batchY = append(m.batchY, o.Label)
	if len(m.batchX) >= minibatch {
		m.step()
	}

	m.roundLeft--
	if m.roundLeft <= 0 {
		m.roundLeft = roundSamples
		if len(m.batchX) > 0 { // flush the partial minibatch before scoring
			m.step()
		}
		m.shadowRound()
	}
}

// step runs one SGD minibatch on the candidate's own weights — scratch
// buffers are reused, so steady-state retraining allocates nothing. Every
// outcome fits the candidate's geometry (Observe admits no other), so the
// step cannot fail.
func (m *Manager) step() {
	loss, _ := m.candidate.TrainBatchScratch(m.scratch, m.batchX, m.batchY, learningRate)
	n := len(m.batchX)
	m.batchX = m.batchX[:0]
	m.batchY = m.batchY[:0]
	m.retrainSteps.Inc()
	m.retrainSamples.Add(int64(n))
	m.rec.Emit(flightrec.DomainLifecycle, flightrec.EvRetrainStep,
		0, m.evSeq.Add(1), 0, uint64(n), uint64(loss*1000), 0)
}

// register snapshots net as a version and returns it. The network is
// deep-copied, so the caller may keep training the original; weights
// byte-identical to a registered version return that version instead of
// minting (and counting) a duplicate. Caller holds mu (or is building m).
func (m *Manager) register(net *nn.Network) *Version {
	snap := net.Clone()
	h := fnv.New64a()
	_, _ = h.Write(snap.Marshal())
	v, ok := m.byHash[h.Sum64()]
	if !ok {
		m.nextSeq++
		v = &Version{Seq: m.nextSeq, Hash: h.Sum64(), net: snap}
		m.byHash[v.Hash] = v
		m.registrations.Inc()
	}
	return v
}

// shadowRound A-B scores the candidate against the serving version over
// the retained outcome window and promotes on a clear win.
func (m *Manager) shadowRound() {
	if m.wcount == 0 {
		return
	}
	serving := m.serving
	var candHits, servHits int
	for i := 0; i < m.wcount; i++ {
		o := m.window[i]
		if m.candidate.PredictScratch(m.scratch, o.X) == o.Label {
			candHits++
		}
		if serving.net.PredictScratch(m.scratch, o.X) == o.Label {
			servHits++
		}
	}
	m.rec.Emit(flightrec.DomainLifecycle, flightrec.EvShadowScore,
		0, m.evSeq.Add(1), 0, uint64(candHits), uint64(servHits), uint64(m.wcount))
	candAcc := float64(candHits) / float64(m.wcount)
	m.shadowAccuracy.Set(int64(candAcc * 1000))
	servAcc := float64(servHits) / float64(m.wcount)
	if candAcc < servAcc+promoteMargin {
		return
	}
	v := m.register(m.candidate)
	m.rec.Emit(flightrec.DomainLifecycle, flightrec.EvModelRegister,
		0, m.evSeq.Add(1), 0, v.Seq, v.Hash, 0)
	if v == serving {
		return // candidate dedup'd back to the serving weights: no-op
	}
	if m.swap(v, flightrec.SwapPromote) != nil {
		return
	}
	m.past = append(m.past, serving)
	// The candidate won on this window: its shadow accuracy is the new
	// drift baseline, and the live counters restart for the new version.
	m.baseline = candAcc
	m.dHits, m.dSeen, m.dBad = 0, 0, 0
	if m.healthy.CompareAndSwap(false, true) {
		m.rec.Emit(flightrec.DomainLifecycle, flightrec.EvFallback,
			0, m.evSeq.Add(1), 0, 0, 0, 0)
	}
}

// closeDriftWindow evaluates one completed live-accuracy window against
// the pinned baseline.
func (m *Manager) closeDriftWindow() {
	acc := float64(m.dHits) / float64(m.dSeen)
	m.dHits, m.dSeen = 0, 0
	if m.baseline < 0 {
		m.baseline = acc // first window after a (re)pin sets the reference
		return
	}
	if acc >= m.baseline-driftTolerance {
		m.dBad = 0
		return
	}
	m.dBad++
	m.driftAlarms.Inc()
	m.rec.Emit(flightrec.DomainLifecycle, flightrec.EvDriftAlarm,
		0, m.evSeq.Add(1), 0, uint64(acc*1000), uint64(m.baseline*1000), uint64(m.dBad))
	if m.dBad >= driftBadWindows {
		m.dBad = 0
		m.demote()
	}
}

// demote rolls the serving slot back to the previous version; with no
// previous version left it marks the model unhealthy, so routing falls
// back to the CPU/heuristic path.
func (m *Manager) demote() {
	if len(m.past) == 0 {
		if m.healthy.CompareAndSwap(true, false) {
			m.fallbackEnters.Inc()
			m.rec.Emit(flightrec.DomainLifecycle, flightrec.EvFallback,
				0, m.evSeq.Add(1), 0, 1, 0, 0)
		}
		return
	}
	v := m.past[len(m.past)-1]
	if m.swap(v, flightrec.SwapDemote) != nil {
		return
	}
	m.past = m.past[:len(m.past)-1]
	m.demotions.Inc()
	// Resync the trainer onto the reinstated weights. The baseline is
	// deliberately NOT re-pinned: the reinstated version is held to the
	// same standard, so a rollback that also drifts cascades down the
	// version stack and finally into heuristic fallback.
	m.candidate = v.net.Clone()
}

// swap installs v in the attached predictor, then in the serving slot, and
// records the flip. A predictor that rejects v keeps serving the old
// version, and so does the manager. Caller holds mu.
func (m *Manager) swap(v *Version, reason uint64) error {
	if m.apply != nil {
		if err := m.apply(v.net); err != nil {
			return err
		}
	}
	old := m.serving
	m.serving = v
	m.swaps.Inc()
	m.servingVersion.Set(int64(v.Seq))
	m.rec.Emit(flightrec.DomainLifecycle, flightrec.EvModelSwap,
		0, m.evSeq.Add(1), 0, v.Seq, old.Seq, reason)
	return nil
}

// Promote is the operator's install path: it registers net (weights
// byte-identical to a registered version reuse it), flips the attached
// predictor and the serving slot to it, and resyncs the trainer onto it,
// with the drift baseline pinned afresh from the next window. net must
// have the base's layer geometry, as the predictor's SwapNet requires.
func (m *Manager) Promote(net *nn.Network) (*Version, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if net == nil || !nn.SameShape(net, m.serving.net) {
		return nil, fmt.Errorf("lifecycle: promote needs a network of sizes %v", m.serving.net.Sizes())
	}
	v := m.register(net)
	m.rec.Emit(flightrec.DomainLifecycle, flightrec.EvModelRegister,
		0, m.evSeq.Add(1), 0, v.Seq, v.Hash, 0)
	if v == m.serving {
		return v, nil
	}
	old := m.serving
	if err := m.swap(v, flightrec.SwapPromote); err != nil {
		return nil, err
	}
	m.past = append(m.past, old)
	m.candidate = v.net.Clone()
	m.baseline = -1
	m.dHits, m.dSeen, m.dBad = 0, 0, 0
	return v, nil
}

// Stats snapshots lifecycle activity.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{
		ServingSeq:   m.serving.Seq,
		ServingHash:  m.serving.Hash,
		Versions:     len(m.byHash),
		SamplesSeen:  m.samplesSeen.Load(),
		Dropped:      uint64(m.dropped.Value()),
		RetrainSteps: uint64(m.retrainSteps.Value()),
		Swaps:        uint64(m.swaps.Value()),
		Demotions:    uint64(m.demotions.Value()),
		DriftAlarms:  uint64(m.driftAlarms.Value()),
		Fallback:     !m.healthy.Load(),
	}
	if m.baseline >= 0 {
		s.Baseline = m.baseline
	}
	if m.dSeen > 0 {
		s.LiveAccuracy = float64(m.dHits) / float64(m.dSeen)
	}
	return s
}
