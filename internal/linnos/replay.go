package linnos

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"lakego/internal/features"
	"lakego/internal/storage"
	"lakego/internal/trace"
)

// Mode selects the Fig 7 configuration for a replay.
type Mode int

// Replay modes: the kernel's default behaviour (no rerouting), LinnOS's
// CPU-only model, or the LAKE port that batches inference and modulates
// between CPU and GPU.
const (
	ModeBaseline Mode = iota
	ModeCPU
	ModeLAKE
)

func (m Mode) String() string {
	switch m {
	case ModeBaseline:
		return "baseline"
	case ModeCPU:
		return "cpu"
	case ModeLAKE:
		return "LAKE"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Workload is a set of traces, one per device of the array (§7.1: "Our
// mixed workload replays each trace with a different default target NVMe").
type Workload struct {
	Name      string
	PerDevice [][]trace.Request
}

// SingleTraceWorkload replays the same trace on every device — the original
// LinnOS setting ("replaying the same trace on each NVMe"). Identical
// traffic means identical write-pressure GC schedules, so all devices stall
// together and rejecting a slow I/O has nowhere better to go — the reason
// the paper finds "no benefit in rerouting I/Os" for these workloads.
func SingleTraceWorkload(p trace.Profile, devices, n int, seed int64) Workload {
	w := Workload{Name: p.Name + "*"}
	reqs := p.Generate(seed, n)
	for d := 0; d < devices; d++ {
		w.PerDevice = append(w.PerDevice, reqs)
	}
	return w
}

// MixedWorkload replays Azure, Bing-I and Cosmos on devices 0, 1, 2,
// rerated by the given factor (1 for Mixed, 3 for Mixed+).
func MixedWorkload(name string, n int, seed int64, rerate float64) Workload {
	w := Workload{Name: name}
	for i, p := range trace.Profiles() {
		w.PerDevice = append(w.PerDevice, p.Rerate(rerate).Generate(seed+int64(i), n))
	}
	return w
}

// ReplayConfig tunes the replay engine.
type ReplayConfig struct {
	Mode Mode
	// Quantum bounds batch formation time (Listing 4's "quantum passed").
	Quantum time.Duration
	// Seed drives device randomness.
	Seed int64
}

const (
	// batchCap dispatches a batch early when it fills ("batch > thresh").
	batchCap = 32
	// reissuePenalty is the cost of revoking and reissuing an I/O.
	reissuePenalty = 5 * time.Microsecond
)

// DefaultReplayConfig returns the evaluation's settings.
func DefaultReplayConfig(mode Mode) ReplayConfig {
	return ReplayConfig{
		Mode:    mode,
		Quantum: 100 * time.Microsecond,
		Seed:    1,
	}
}

// crossover is the measured Fig 8 batch-size crossover per model variant
// (Table 3 reports 8 for the base model; §7.1 reports ~3 and ~2 for the
// augmented ones).
func crossover(k ModelKind) int {
	switch k {
	case Plus1:
		return 4
	case Plus2:
		return 2
	default:
		return 8
	}
}

// Result summarizes one replay.
type Result struct {
	Workload string
	Config   string
	Reads    int
	AvgRead  time.Duration
	P95Read  time.Duration
	Reissued int
	// GPUBatches and CPUInferences split inference work by target.
	GPUBatches    int
	CPUInferences int
}

// pendingIO is one read I/O waiting in the global inference batch.
type pendingIO struct {
	arrival time.Duration
	size    int64
	dev     int
	x       []float32
}

// devState carries per-device replay state.
type devState struct {
	dev *storage.Device
	reg *features.Registry
	// cpuFree is when the device's inference core is next idle: LinnOS
	// runs inference synchronously in the submission path, one core's
	// worth of inference capacity per device.
	cpuFree  time.Duration
	ewmaGap  time.Duration
	lastArr  time.Duration
	haveLast bool
}

// Replay runs a workload through the array under the given configuration.
// pred may be nil for ModeBaseline.
func Replay(pred *Predictor, w Workload, cfg ReplayConfig) (Result, error) {
	if cfg.Mode != ModeBaseline && pred == nil {
		return Result{}, fmt.Errorf("linnos: mode %s requires a predictor", cfg.Mode)
	}
	return replay(pred, w, cfg, nil)
}

// replay is the loop behind Replay and ReplayAutoML. A non-nil monitor runs
// ModeCPU modulated: per read it decides between the model path, fed by
// DeviceFeatures, and the kernel default, and it records each latency.
func replay(pred *Predictor, w Workload, cfg ReplayConfig, monitor *BenefitMonitor) (Result, error) {
	if cfg.Quantum <= 0 {
		cfg.Quantum = 100 * time.Microsecond
	}

	// Fresh devices and per-device feature registries (Listing 4: "Each
	// block device needs its own feature registry"), in a store the replay
	// owns.
	nDev := len(w.PerDevice)
	if nDev < 2 {
		return Result{}, fmt.Errorf("linnos: workload needs >= 2 devices, got %d", nDev)
	}
	states := make([]*devState, nDev)
	devs := make([]*storage.Device, nDev)
	schema := features.Schema{
		{Key: "pend_ios", Size: 8, Entries: 1},
		{Key: "io_latency", Size: 8, Entries: latencyCount},
	}
	sys := "bio_latency_prediction"
	store := features.NewStore()
	for i := range states {
		name := fmt.Sprintf("nvme%d", i)
		dev := storage.NewDevice(name, cfg.Seed+int64(i))
		reg, err := store.CreateRegistry(name, sys, schema, MaxBatch)
		if err != nil {
			return Result{}, err
		}
		states[i] = &devState{dev: dev, reg: reg}
		devs[i] = dev
	}
	array, err := storage.NewArray(devs...)
	if err != nil {
		return Result{}, err
	}

	// Merge arrivals across devices.
	type event struct {
		req trace.Request
		dev int
	}
	var events []event
	for d, reqs := range w.PerDevice {
		for _, r := range reqs {
			events = append(events, event{req: r, dev: d})
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].req.Arrival < events[j].req.Arrival })

	var (
		readLats  []time.Duration
		reissued  int
		gpuBatch  int
		cpuInfers int
		// Global inference batch across devices: the GPU classifier is
		// one resource; aggregating arrivals is what makes batches large
		// enough to amortize offload ("LAKE performs better with high
		// IOPS workloads ... due to increased batching").
		queue   []pendingIO
		firstAt time.Duration
	)

	act := func(p pendingIO, slow bool, adder time.Duration) {
		target := states[p.dev].dev
		if slow {
			target = array.ReissueTarget(target)
			adder += reissuePenalty
			reissued++
		}
		c := target.Submit(p.arrival+adder, p.size, false)
		readLats = append(readLats, c.FinishAt-p.arrival)
	}

	// inferCPUOne runs per-I/O inference on the issuing device's core; at
	// high IOPS the core saturates and queueing delay makes rich models
	// impractical on the CPU (§7.1's case for acceleration).
	inferCPUOne := func(p pendingIO) {
		s := states[p.dev]
		start := p.arrival
		if s.cpuFree > start {
			start = s.cpuFree
		}
		done := start + pred.Kind().CPUInferCost()
		s.cpuFree = done
		cpuInfers++
		act(p, isSlow(pred.Net().Forward(p.x)), done-p.arrival)
	}

	flush := func() error {
		if len(queue) == 0 {
			return nil
		}
		dispatchAt := firstAt + cfg.Quantum
		if last := queue[len(queue)-1].arrival; last > dispatchAt {
			dispatchAt = last
		}
		xs := make([][]float32, len(queue))
		for i := range queue {
			xs[i] = queue[i].x
		}
		slow, gpuDur, err := pred.InferLAKE(xs, true)
		if err != nil {
			return err
		}
		gpuBatch++
		for i, p := range queue {
			wait := dispatchAt - p.arrival
			if wait < 0 {
				wait = 0
			}
			act(p, slow[i], wait+gpuDur)
		}
		queue = queue[:0]
		return nil
	}

	// capture records the I/O's device state in the feature registry
	// (Listing 4) and returns the decoded model input.
	capture := func(s *devState, now time.Duration) []float32 {
		s.reg.BeginCapture(now)
		pend := int64(s.dev.Pending(now))
		s.reg.CaptureFeature("pend_ios", u64le(pend))
		var lat0 int64
		if rl := s.dev.RecentLatencies(); len(rl) > 0 {
			lat0 = int64(rl[0])
		}
		s.reg.CaptureFeature("io_latency", u64le(lat0))
		v := s.reg.CommitCapture(now)
		if s.reg.Len() >= s.reg.Window() {
			s.reg.Truncate(features.NullTS)
		}
		return vectorOf(v)
	}

	for _, ev := range events {
		now := ev.req.Arrival
		// Quantum-expiry dispatch (Listing 4 line 11).
		if cfg.Mode == ModeLAKE && len(queue) > 0 && now >= firstAt+cfg.Quantum {
			if err := flush(); err != nil {
				return Result{}, err
			}
		}
		s := states[ev.dev]
		if ev.req.Write {
			s.dev.Submit(now, ev.req.Size, true)
			continue
		}
		mode, useML := cfg.Mode, true
		if monitor != nil {
			if useML = monitor.NextUseML(); !useML {
				mode = ModeBaseline
			}
		}
		switch mode {
		case ModeBaseline:
			c := s.dev.Submit(now, ev.req.Size, false)
			readLats = append(readLats, c.Latency)

		case ModeCPU:
			var x []float32
			if monitor != nil {
				x = DeviceFeatures(s.dev, now)
			} else {
				x = capture(s, now)
			}
			inferCPUOne(pendingIO{arrival: now, size: ev.req.Size, dev: ev.dev, x: x})

		case ModeLAKE:
			// Track the global arrival rate for the batch-size policy.
			if s.haveLast {
				gap := now - s.lastArr
				if s.ewmaGap == 0 {
					s.ewmaGap = gap
				} else {
					s.ewmaGap = (s.ewmaGap*7 + gap) / 8
				}
			}
			s.lastArr, s.haveLast = now, true

			x := capture(s, now)
			p := pendingIO{arrival: now, size: ev.req.Size, dev: ev.dev, x: x}

			// Predicted global batch from per-device rates.
			var rate float64 // arrivals per second across devices
			for _, st := range states {
				if st.haveLast && st.ewmaGap > 0 {
					rate += 1 / st.ewmaGap.Seconds()
				}
			}
			predictedBatch := int(rate * cfg.Quantum.Seconds())
			if predictedBatch < crossover(pred.Kind()) {
				// Policy: fewer I/Os per quantum than the model's measured
				// crossover cannot amortize the GPU; CPU path.
				inferCPUOne(p)
				continue
			}
			if len(queue) == 0 {
				firstAt = now
			}
			queue = append(queue, p)
			if len(queue) >= batchCap {
				if err := flush(); err != nil {
					return Result{}, err
				}
			}
		}
		if monitor != nil {
			monitor.Record(useML, readLats[len(readLats)-1])
		}
	}
	if cfg.Mode == ModeLAKE {
		if err := flush(); err != nil {
			return Result{}, err
		}
	}

	res := Result{Workload: w.Name, Config: cfg.Mode.String(), Reads: len(readLats),
		Reissued: reissued, GPUBatches: gpuBatch, CPUInferences: cpuInfers}
	if pred != nil {
		res.Config = fmt.Sprintf("%s %s", pred.Kind(), cfg.Mode)
	}
	if len(readLats) > 0 {
		var sum time.Duration
		for _, l := range readLats {
			sum += l
		}
		res.AvgRead = sum / time.Duration(len(readLats))
		sorted := append([]time.Duration(nil), readLats...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		res.P95Read = sorted[len(sorted)*95/100]
	}
	return res, nil
}

// vectorOf decodes a committed feature vector back into model input.
func vectorOf(v features.Vector) []float32 {
	pendRaw := v.Values["pend_ios"]
	latRaw := v.Values["io_latency"]
	pendingCnt := int(int64(binary.LittleEndian.Uint64(pendRaw)))
	recent := make([]time.Duration, latencyCount)
	for i := 0; i < latencyCount; i++ {
		recent[i] = time.Duration(int64(binary.LittleEndian.Uint64(latRaw[8*i:])))
	}
	return FeatureVector(pendingCnt, recent)
}

func u64le(v int64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(v))
	return b
}
