package lifecycle

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lakego/internal/core"
	"lakego/internal/flightrec"
	"lakego/internal/nn"
	"lakego/internal/policy"
	"lakego/internal/telemetry"
	"lakego/internal/vtime"
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
)

// Config parameterizes a Manager.
type Config struct {
	// Model is the family label stamped on telemetry and trace events.
	Model string

	// Buffer is the bounded feedback channel's capacity (default 4096).
	// Offer never blocks: beyond-capacity outcomes are dropped and counted.
	Buffer int
	// Minibatch is the SGD step size (default 64).
	Minibatch int
	// RoundSamples is how many feedback samples one retrain round consumes
	// before the candidate is shadow-scored for promotion (default 256).
	RoundSamples int
	// ShadowWindow is how many recent outcomes the A-B comparison replays
	// over (default 512).
	ShadowWindow int

	// DriftWindow is how many outcomes one drift evaluation window spans
	// (default 256).
	DriftWindow int
	// DriftTolerance is the live-accuracy drop below the pinned baseline
	// that marks a window bad (default 0.10).
	DriftTolerance float64
	// DriftBadWindows is how many consecutive bad windows trigger a
	// demotion (default 2 — one bad window is weather, two is climate).
	DriftBadWindows int
}

// DefaultConfig returns the shipping lifecycle parameters for a model.
func DefaultConfig(model string) Config {
	return Config{
		Model:           model,
		Buffer:          4096,
		Minibatch:       64,
		RoundSamples:    256,
		ShadowWindow:    512,
		DriftWindow:     256,
		DriftTolerance:  0.10,
		DriftBadWindows: 2,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig(c.Model)
	if c.Buffer <= 0 {
		c.Buffer = d.Buffer
	}
	if c.Minibatch <= 0 {
		c.Minibatch = d.Minibatch
	}
	if c.RoundSamples <= 0 {
		c.RoundSamples = d.RoundSamples
	}
	if c.ShadowWindow <= 0 {
		c.ShadowWindow = d.ShadowWindow
	}
	if c.DriftWindow <= 0 {
		c.DriftWindow = d.DriftWindow
	}
	if c.DriftTolerance <= 0 {
		c.DriftTolerance = d.DriftTolerance
	}
	if c.DriftBadWindows <= 0 {
		c.DriftBadWindows = d.DriftBadWindows
	}
}

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

// Manager runs one model's lifecycle: it owns the registry, the online
// trainer and the drift detector, and applies serving flips to the
// attached predictor.
//
// Concurrency contract: Observe is safe from any goroutine and never
// blocks (a bounded-channel send). Processing — Pump — must run
// from one goroutine at a time; all mutation happens there under one
// mutex, so the feedback order fully determines the trained weights
// (fixed inputs reproduce bit-identical models; the determinism test pins
// this).
type Manager struct {
	cfg   Config
	clock *vtime.Clock
	reg   *Registry
	rec   *flightrec.Recorder

	feedback chan Outcome
	healthy  atomic.Bool

	mu         sync.Mutex
	apply      func(*nn.Network) error
	demoteHook func(model string, healthy bool)

	// Online trainer state (all under mu).
	candidate *nn.Network
	scratch   *nn.Scratch
	window    []Outcome // ring of the last ShadowWindow outcomes
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

	// The counters are what Stats reports and what the registry exports;
	// the gauges are nil with telemetry disabled.
	registrations, swaps, demotions telemetry.Counter
	retrainSteps, retrainSamples    telemetry.Counter
	driftAlarms, fallbackEnters     telemetry.Counter
	dropped                         telemetry.Counter // lost to the bounded feedback channel
	servingVersion                  *telemetry.Gauge
	shadowAccuracy                  *telemetry.Gauge // candidate accuracy, per-mille
}

// NewManager builds a lifecycle manager seeded with base as version 1,
// already serving. base is snapshotted — the caller's copy stays free.
func NewManager(clock *vtime.Clock, cfg Config, base *nn.Network) (*Manager, error) {
	if base == nil {
		return nil, fmt.Errorf("lifecycle: nil base network")
	}
	cfg.fillDefaults()
	m := &Manager{
		cfg:      cfg,
		clock:    clock,
		reg:      NewRegistry(),
		feedback: make(chan Outcome, cfg.Buffer),
		window:   make([]Outcome, 0, cfg.ShadowWindow),
		batchX:   make([][]float32, 0, cfg.Minibatch),
		batchY:   make([]int, 0, cfg.Minibatch),
	}
	m.roundLeft = cfg.RoundSamples
	m.baseline = -1
	v := m.reg.Register(base, Meta{Model: cfg.Model, Note: "base", TrainedAt: m.now()})
	m.registrations.Inc()
	if _, _, err := m.reg.Promote(v.Seq); err != nil {
		return nil, err
	}
	m.candidate = base.Clone()
	m.scratch = nn.NewScratch(m.candidate)
	m.healthy.Store(true)
	return m, nil
}

func (m *Manager) now() time.Duration {
	if m.clock == nil {
		return 0
	}
	return m.clock.Now()
}

// New boots the manager for one model on rt: NewManager on the runtime's
// clock, wired into its flight recorder (lifecycle events land in the
// DomainLifecycle ring) and its telemetry (model="..."-labelled swap /
// retrain / drift series plus the serving-version gauge). Attach the
// predictor's SwapNet, feed Observe from the completion path, and hand the
// manager to a health plane with healthplane.Plane.Watch.
func New(rt *core.Runtime, cfg Config, base *nn.Network) (*Manager, error) {
	m, err := NewManager(rt.Clock(), cfg, base)
	if err != nil {
		return nil, err
	}
	m.rec = rt.FlightRecorder()
	m.instrument(rt.Telemetry(), rt.Namer(`model="`+cfg.Model+`"`))
	return m, nil
}

// instrument declares the manager's series on reg; name carries the
// model="..." label.
func (m *Manager) instrument(reg *telemetry.Registry, name telemetry.Namer) {
	reg.AttachCounter(name("lake_model_registrations_total"), "Model versions added to the registry.", &m.registrations)
	reg.AttachCounter(name("lake_model_swaps_total"), "Serving-slot flips (promotions, demotions, rollbacks).", &m.swaps)
	reg.AttachCounter(name("lake_model_retrain_steps_total"), "Online SGD minibatch steps run in lakeD.", &m.retrainSteps)
	reg.AttachCounter(name("lake_model_retrain_samples_total"), "Feedback samples consumed by online retraining.", &m.retrainSamples)
	reg.AttachCounter(name("lake_model_drift_alarms_total"), "Drift windows whose live accuracy fell below the pinned baseline.", &m.driftAlarms)
	reg.AttachCounter(name("lake_model_demotions_total"), "Drift-driven rollbacks to the previous serving version.", &m.demotions)
	reg.AttachCounter(name("lake_model_fallback_total"), "Times the model went unhealthy and routing fell back to the CPU/heuristic path.", &m.fallbackEnters)
	reg.AttachCounter(name("lake_model_feedback_dropped_total"), "Outcomes dropped by the bounded feedback channel.", &m.dropped)
	m.servingVersion = reg.Gauge(name("lake_model_serving_version"), "Sequence number of the serving model version.")
	m.shadowAccuracy = reg.Gauge(name("lake_model_shadow_accuracy_permille"), "Candidate accuracy over the last shadow window (per-mille).")
	if v := m.reg.Serving(); v != nil {
		m.servingVersion.Set(int64(v.Seq))
	}
}

// Attach registers the hot-swap hook — typically linnos.(*Predictor).SwapNet
// or kml.(*Classifier).SwapNet — and immediately applies the current
// serving version so the predictor and registry agree from the start.
func (m *Manager) Attach(apply func(*nn.Network) error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.apply = apply
	if v := m.reg.Serving(); v != nil && apply != nil {
		return apply(v.Net())
	}
	return nil
}

// Registry exposes the version registry.
func (m *Manager) Registry() *Registry { return m.reg }

// Model returns the model family label this manager governs.
func (m *Manager) Model() string { return m.cfg.Model }

// SetDemotionHook installs a callback fired after every drift demotion and
// on the transition into heuristic fallback, with the model label and
// whether the model path is still healthy. The hook runs synchronously on
// the processing goroutine with the manager mutex held: it must be cheap
// and must not call back into the manager (Stats would deadlock) — set a
// flag, ping a channel. The health plane uses it as a poll-soon signal.
func (m *Manager) SetDemotionHook(f func(model string, healthy bool)) {
	m.mu.Lock()
	m.demoteHook = f
	m.mu.Unlock()
}

// Serving returns the serving version.
func (m *Manager) Serving() *Version { return m.reg.Serving() }

// Healthy reports whether the model path should be used at all; false
// means drift exhausted every registered version and routing should stay
// on the CPU/heuristic path.
func (m *Manager) Healthy() bool { return m.healthy.Load() }

// WrapPolicy layers drift fallback onto an execution policy: while the
// model is unhealthy every batch routes to the CPU path regardless of
// pol's profitability verdict. Use it where a policy.Func feeds the
// existing *Auto entry points.
func (m *Manager) WrapPolicy(pol policy.Func) policy.Func {
	return func(batch int) policy.Decision {
		if !m.Healthy() {
			return policy.UseCPU
		}
		if pol == nil {
			return policy.UseGPU
		}
		return pol(batch)
	}
}

// Observe offers one outcome to the lifecycle. Never blocks: when the
// bounded feedback channel is full the outcome is dropped and counted
// (the hot path must not back-pressure on the trainer). Reports whether
// the outcome was accepted.
func (m *Manager) Observe(o Outcome) bool {
	select {
	case m.feedback <- o:
		return true
	default:
		m.dropped.Inc()
		return false
	}
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
	if m.dSeen >= m.cfg.DriftWindow {
		m.closeDriftWindow()
	}

	// Shadow window ring.
	if len(m.window) < m.cfg.ShadowWindow {
		m.window = append(m.window, o)
	} else {
		m.window[m.wnext] = o
	}
	m.wnext = (m.wnext + 1) % m.cfg.ShadowWindow
	if m.wcount < m.cfg.ShadowWindow {
		m.wcount++
	}

	// Online SGD on the candidate.
	m.batchX = append(m.batchX, o.X)
	m.batchY = append(m.batchY, o.Label)
	if len(m.batchX) >= m.cfg.Minibatch {
		m.step()
	}

	m.roundLeft--
	if m.roundLeft <= 0 {
		m.roundLeft = m.cfg.RoundSamples
		if len(m.batchX) > 0 { // flush the partial minibatch before scoring
			m.step()
		}
		m.shadowRound()
	}
}

// step runs one SGD minibatch on the candidate's own weights — scratch
// buffers are reused, so steady-state retraining allocates nothing.
func (m *Manager) step() {
	loss, err := m.candidate.TrainBatchScratch(m.scratch, m.batchX, m.batchY, learningRate)
	n := len(m.batchX)
	m.batchX = m.batchX[:0]
	m.batchY = m.batchY[:0]
	if err != nil {
		// Shape mismatches cannot happen for outcomes produced by the
		// attached predictor; a malformed outcome is dropped, not fatal.
		m.dropped.Add(int64(n))
		return
	}
	m.retrainSteps.Inc()
	m.retrainSamples.Add(int64(n))
	m.rec.Emit(flightrec.DomainLifecycle, flightrec.EvRetrainStep,
		0, m.evSeq.Add(1), 0, uint64(n), uint64(loss*1000), 0)
}

// shadowRound A-B scores the candidate against the serving version over
// the retained outcome window and promotes on a clear win.
func (m *Manager) shadowRound() {
	serving := m.reg.Serving()
	if serving == nil || m.wcount == 0 {
		return
	}
	var candHits, servHits int
	for i := 0; i < m.wcount; i++ {
		o := m.window[i]
		if m.candidate.PredictScratch(m.scratch, o.X) == o.Label {
			candHits++
		}
		if serving.Net().PredictScratch(m.scratch, o.X) == o.Label {
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
	v := m.reg.Register(m.candidate, Meta{
		Model:     m.cfg.Model,
		Note:      "online-retrain",
		TrainedAt: m.now(),
		Samples:   int(m.samplesSeen.Load()),
		ParentSeq: serving.Seq,
	})
	m.registrations.Inc()
	m.rec.Emit(flightrec.DomainLifecycle, flightrec.EvModelRegister,
		0, m.evSeq.Add(1), 0, v.Seq, v.Hash, 0)
	if v.Seq == serving.Seq {
		return // candidate dedup'd back to the serving weights: no-op
	}
	nv, old, err := m.reg.Promote(v.Seq)
	if err != nil {
		return
	}
	m.applySwap(nv, old, ReasonPromote)
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
	if acc >= m.baseline-m.cfg.DriftTolerance {
		m.dBad = 0
		return
	}
	m.dBad++
	m.driftAlarms.Inc()
	m.rec.Emit(flightrec.DomainLifecycle, flightrec.EvDriftAlarm,
		0, m.evSeq.Add(1), 0, uint64(acc*1000), uint64(m.baseline*1000), uint64(m.dBad))
	if m.dBad >= m.cfg.DriftBadWindows {
		m.dBad = 0
		m.demote()
	}
}

// demote rolls the serving slot back to the previous version; with no
// previous version left it marks the model unhealthy so WrapPolicy routes
// everything to the CPU/heuristic path.
func (m *Manager) demote() {
	v, old, err := m.reg.Rollback()
	if err != nil {
		if m.healthy.CompareAndSwap(true, false) {
			m.fallbackEnters.Inc()
			m.rec.Emit(flightrec.DomainLifecycle, flightrec.EvFallback,
				0, m.evSeq.Add(1), 0, 1, 0, 0)
			if m.demoteHook != nil {
				m.demoteHook(m.cfg.Model, false)
			}
		}
		return
	}
	m.demotions.Inc()
	if m.demoteHook != nil {
		m.demoteHook(m.cfg.Model, true)
	}
	m.applySwap(v, old, ReasonDemote)
	// Resync the trainer onto the reinstated weights. The baseline is
	// deliberately NOT re-pinned: the reinstated version is held to the
	// same standard, so a rollback that also drifts cascades down the
	// version stack and finally into heuristic fallback.
	m.candidate = v.Net().Clone()
}

// applySwap pushes a registry flip into the attached predictor and records
// it. Caller holds mu.
func (m *Manager) applySwap(nv, old *Version, reason SwapReason) {
	if m.apply != nil {
		if err := m.apply(nv.Net()); err != nil {
			// A predictor that rejects the new weights keeps serving the
			// old ones; put the registry back in agreement.
			if old != nil {
				_, _, _ = m.reg.Promote(old.Seq)
			}
			return
		}
	}
	m.swaps.Inc()
	m.servingVersion.Set(int64(nv.Seq))
	var oldSeq uint64
	if old != nil {
		oldSeq = old.Seq
	}
	m.rec.Emit(flightrec.DomainLifecycle, flightrec.EvModelSwap,
		0, m.evSeq.Add(1), 0, nv.Seq, oldSeq, uint64(reason))
}

// PromoteVersion explicitly flips the serving slot to a registered version
// (operator action), resyncing the trainer's candidate onto it.
func (m *Manager) PromoteVersion(seq uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	nv, old, err := m.reg.Promote(seq)
	if err != nil {
		return err
	}
	if old == nv {
		return nil
	}
	m.applySwap(nv, old, ReasonPromote)
	m.candidate = nv.Net().Clone()
	m.scratch = nn.NewScratch(m.candidate)
	m.baseline = -1
	m.dHits, m.dSeen, m.dBad = 0, 0, 0
	return nil
}

// Dropped reports outcomes lost to the bounded feedback channel.
func (m *Manager) Dropped() uint64 { return uint64(m.dropped.Value()) }

// Stats snapshots lifecycle activity.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{
		Versions:     m.reg.Len(),
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
	if v := m.reg.Serving(); v != nil {
		s.ServingSeq, s.ServingHash = v.Seq, v.Hash
	}
	if m.dSeen > 0 {
		s.LiveAccuracy = float64(m.dHits) / float64(m.dSeen)
	}
	return s
}
