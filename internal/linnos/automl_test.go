package linnos

import (
	"testing"
	"time"

	"lakego/internal/nn"
	"lakego/internal/trace"
)

func TestBenefitMonitorDefaults(t *testing.T) {
	m := NewBenefitMonitor()
	if !m.Enabled() {
		t.Fatal("monitor must start optimistic")
	}
	if m.MLFraction() != 0 {
		t.Fatal("fraction nonzero before traffic")
	}
}

func TestBenefitMonitorControlSampling(t *testing.T) {
	m := NewBenefitMonitor()
	ctrl := 0
	for i := 0; i < 800; i++ {
		if !m.NextUseML() {
			ctrl++
		}
	}
	if ctrl != 100 {
		t.Fatalf("control group = %d of 800, want 100 (every %dth)", ctrl, controlEvery)
	}
	if got := m.MLFraction(); got != 0.875 {
		t.Fatalf("MLFraction = %v, want 0.875", got)
	}
}

// feed routes n reads through m, charging ml to those that take the ML
// path and ctrl to the rest.
func feed(m *BenefitMonitor, n int, ml, ctrl time.Duration) {
	for i := 0; i < n; i++ {
		useML := m.NextUseML()
		lat := ctrl
		if useML {
			lat = ml
		}
		m.Record(useML, lat)
	}
}

func TestBenefitMonitorDisablesWhenMLHurts(t *testing.T) {
	m := NewBenefitMonitor()
	// ML consistently 30% worse: confirmEvals evaluations against it flip
	// the decision, and the control group keeps confirming it.
	feed(m, 4*evalEvery, 130*time.Microsecond, 100*time.Microsecond)
	if m.Enabled() {
		t.Fatal("monitor kept harmful ML enabled")
	}
	if m.Flips() != 1 {
		t.Fatalf("flips = %d, want 1", m.Flips())
	}
}

func TestBenefitMonitorReEnablesWhenRegimeChanges(t *testing.T) {
	m := NewBenefitMonitor()
	// Phase 1: ML hurts.
	feed(m, 2*evalEvery, 150*time.Microsecond, 100*time.Microsecond)
	if m.Enabled() {
		t.Fatal("phase 1: ML should be off")
	}
	// Phase 2: the device starts stalling; ML dodges it.
	feed(m, 4*evalEvery, 200*time.Microsecond, 800*time.Microsecond)
	if !m.Enabled() {
		t.Fatal("phase 2: monitor failed to re-enable beneficial ML")
	}
	if m.Flips() != 2 {
		t.Fatalf("flips = %d, want 2", m.Flips())
	}
}

// The §7.1 future-work behaviour end to end: on a single-trace workload
// (where ML cannot help) the modulated replay approaches the baseline and
// ends with ML disabled; on the stressed mixed workload it keeps ML on and
// beats the baseline.
func TestAutoMLModulatesEndToEnd(t *testing.T) {
	rt := boot(t)
	net, err := TrainedNetwork(Base)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := NewPredictor(rt, Base, net)
	if err != nil {
		t.Fatal(err)
	}

	single := SingleTraceWorkload(trace.Azure(), 3, 3000, 11)
	base, err := Replay(nil, single, DefaultReplayConfig(ModeBaseline))
	if err != nil {
		t.Fatal(err)
	}
	alwaysML, err := Replay(pred, single, DefaultReplayConfig(ModeCPU))
	if err != nil {
		t.Fatal(err)
	}
	auto, err := ReplayAutoML(pred, single, DefaultReplayConfig(ModeCPU))
	if err != nil {
		t.Fatal(err)
	}
	if auto.FinalEnabled {
		t.Fatalf("single trace: ML still enabled at end (fraction %.2f)", auto.MLFraction)
	}
	if auto.MLFraction > 0.6 {
		t.Fatalf("single trace: ML used for %.0f%% of reads, want mostly off", auto.MLFraction*100)
	}
	// Modulation must recover most of the gap between always-ML and baseline.
	if auto.AvgRead >= alwaysML.AvgRead {
		t.Fatalf("modulated %v not better than always-ML %v on single trace",
			auto.AvgRead, alwaysML.AvgRead)
	}
	slack := base.AvgRead + (alwaysML.AvgRead-base.AvgRead)*3/4
	if auto.AvgRead > slack {
		t.Fatalf("modulated %v recovered too little (baseline %v, always-ML %v)",
			auto.AvgRead, base.AvgRead, alwaysML.AvgRead)
	}

	mixed := MixedWorkload("Mixed+", 2500, 31, 3)
	baseM, err := Replay(nil, mixed, DefaultReplayConfig(ModeBaseline))
	if err != nil {
		t.Fatal(err)
	}
	autoM, err := ReplayAutoML(pred, mixed, DefaultReplayConfig(ModeCPU))
	if err != nil {
		t.Fatal(err)
	}
	if !autoM.FinalEnabled {
		t.Fatal("mixed+: beneficial ML was disabled")
	}
	if autoM.MLFraction < 0.5 {
		t.Fatalf("mixed+: ML used for only %.0f%% of reads", autoM.MLFraction*100)
	}
	if autoM.AvgRead >= baseM.AvgRead {
		t.Fatalf("mixed+: modulated %v did not beat baseline %v", autoM.AvgRead, baseM.AvgRead)
	}
}

func TestReplayAutoMLValidation(t *testing.T) {
	if _, err := ReplayAutoML(nil, Workload{}, DefaultReplayConfig(ModeCPU)); err == nil {
		t.Fatal("nil predictor accepted")
	}
	rt := boot(t)
	pred, err := NewPredictor(rt, Base, mustNet(t))
	if err != nil {
		t.Fatal(err)
	}
	one := Workload{Name: "one", PerDevice: [][]trace.Request{trace.Azure().Generate(1, 10)}}
	if _, err := ReplayAutoML(pred, one, DefaultReplayConfig(ModeCPU)); err == nil {
		t.Fatal("single-device workload accepted")
	}
}

func mustNet(t *testing.T) *nn.Network {
	t.Helper()
	net, err := TrainedNetwork(Base)
	if err != nil {
		t.Fatal(err)
	}
	return net
}
