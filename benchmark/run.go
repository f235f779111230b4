package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// setups is how often a run sets the workload up from scratch (pools,
// references, boot, schedule, warm-up). setup_s is the median; the timed
// phase runs on the first one.
const setups = 3

// result is everything one workload run measured.
type result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`

	// Counts are inference items of the timed phase.
	Attempted int64 `json:"attempted"`
	Completed int64 `json:"completed"`
	Shed      int64 `json:"shed"`
	Rejected  int64 `json:"rejected"`
	Failed    int64 `json:"failed"`
	Wrong     int64 `json:"wrong"`
	Samples   int   `json:"latency_samples"`

	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// Notes flag ledger rows outside their tolerance, with the remainder.
	Notes []string `json:"notes,omitempty"`
	// Rounds are the timed rounds' raw rates and speed factors.
	RoundRaw    []float64 `json:"round_raw_req_per_s"`
	RoundFactor []float64 `json:"round_speed_factor"`
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range bytes.Split(data, []byte("\n")) {
			if f := bytes.Fields(line); len(f) >= 2 && string(f[0]) == "VmHWM:" {
				if kb, err := strconv.ParseFloat(string(f[1]), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runWorkload sets the workload up, runs the untraced timed rounds that give
// the end-to-end metrics and, when traced, the quarter-length traced pass
// and the probes that give the per-layer ones. traceDir receives the span
// file ("" writes none).
func runWorkload(spec *workloadSpec, seed int64, sz sizing, traced bool, traceDir string) (*result, error) {
	cal := newCalibrator()
	// setUp boots the workload from scratch and warms it up, timed between
	// two bursts of reference slices.
	setUp := func() (driver, float64, error) {
		for i := 0; i < slicesPerRound/2; i++ {
			cal.slice()
		}
		t0 := time.Now()
		d, err := spec.boot(spec, seed, sz)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: boot: %w", spec.name, err)
		}
		if err := d.warm(); err != nil {
			return nil, 0, fmt.Errorf("%s: warm-up: %w", spec.name, err)
		}
		took := time.Since(t0).Seconds()
		for i := 0; i < slicesPerRound/2; i++ {
			cal.slice()
		}
		factor, _, _ := cal.take()
		return d, took / factor, nil
	}
	d, firstSetup, err := setUp()
	if err != nil {
		return nil, err
	}
	setupS := []float64{firstSetup}
	st, t := d.stack(), d.tally()
	defer st.close()
	timed, tracedSteps, spansPerStep := d.steps()

	var before counters
	if traced {
		before = collect(st)
	}

	// Timed phase: a fixed number of steps in equal rounds, tracing off.
	var ms0, ms1 runtime.MemStats
	rate := make([]float64, rounds)   // speed-normalised, see calib.go
	cpuPer := make([]float64, rounds) // likewise
	rawRate := make([]float64, rounds)
	factors := make([]float64, rounds)
	var wall time.Duration
	t.on = true
	runtime.ReadMemStats(&ms0)
	v0 := st.virtualElapsed()
	for r := 0; r < rounds; r++ {
		n := timed / rounds
		if r == rounds-1 {
			n = timed - n*(rounds-1)
		}
		every := n/slicesPerRound + 1
		c0, cpu0, w0 := t.completed, cpuTime(), time.Now()
		for i := 0; i < n; i++ {
			if i%every == 0 {
				cal.slice()
			}
			if err := d.step(nil); err != nil {
				return nil, fmt.Errorf("%s: %w", spec.name, err)
			}
		}
		cal.slice()
		w, cpu, items := time.Since(w0), cpuTime()-cpu0, float64(t.completed-c0)
		factor, calWall, calCPU := cal.take()
		w, cpu = w-calWall, cpu-calCPU
		wall += w
		factors[r] = factor
		rawRate[r] = ratio(items, w.Seconds())
		rate[r] = rawRate[r] * factor
		cpuPer[r] = ratio(float64(cpu)/1e3, items) / factor
	}
	v1 := st.virtualElapsed()
	runtime.ReadMemStats(&ms1)
	t.on = false
	rss := peakRSSMB() // before the traced pass allocates its spans
	roundItems := float64(t.completed)

	res := &result{Workload: spec.name, Seed: seed, Seconds: sz.ops * refSeconds, Traced: traced,
		EndToEnd: map[string]float64{}, RoundRaw: rawRate, RoundFactor: factors}

	if traced {
		m := map[string]float64{}
		for _, def := range perLayer {
			m[def.name] = 0 // a layer the workload bypasses reads 0
		}
		res.PerLayer = m
		after := collect(st)
		counterMetrics(m, st, before, after, roundItems)
		stageMetrics(m, st)

		// Traced pass: the same booted stack, a quarter of the steps, a span
		// around every public call the driver makes.
		tr := newTracer(tracedSteps*spansPerStep + 8192) // + the probes
		w0 := time.Now()
		for i := 0; i < tracedSteps; i++ {
			if err := d.step(tr); err != nil {
				return nil, fmt.Errorf("%s: traced: %w", spec.name, err)
			}
		}
		tracedWall := time.Since(w0)
		if err := d.drain(tr); err != nil {
			return nil, err
		}
		launches := (after.launches - before.launches) / int64(len(st.runtimes))
		probeMetrics(m, st, tr, time.Duration(ratio(float64(after.virt-before.virt), float64(launches))))
		sum := summarize(tr.spans)
		spanMetrics(m, tr.spans, sum)
		m["driver.trace_overhead_pct"] = (1 - ratio(float64(tracedSteps)/tracedWall.Seconds(), float64(timed)/wall.Seconds())) * 100
		m["nn.wall_share_pct"] = ratio(roundItems*m["nn.forward_ns_p50"], float64(wall)) * 100
		res.Notes = ledger(m, before, after, roundItems, wall)
		if traceDir != "" {
			if err := os.MkdirAll(traceDir, 0o755); err != nil {
				return nil, err
			}
			if err := writeTrace(traceDir+"/trace-"+spec.name+".json", spec.name, seed, tr.spans, sum); err != nil {
				return nil, err
			}
		}
	} else if err := d.drain(nil); err != nil {
		return nil, err
	}

	// Set up twice more, only so that setup_s is a median. These come last:
	// the rounds above ran on the heap of a process that had set up once, so
	// peak_rss_mb does not depend on how the collector recycled an earlier
	// set-up's 128 MiB lakeShm regions.
	for k := 1; k < setups; k++ {
		runtime.GC()
		again, s, err := setUp()
		if err != nil {
			return nil, err
		}
		again.stack().close()
		setupS = append(setupS, s)
	}

	// Everything timed has been delivered; close the account.
	res.Attempted, res.Completed, res.Shed, res.Rejected = t.attempted, t.completed, t.shed, t.rejected
	res.Failed, res.Wrong, res.Samples = t.failed, t.wrong, len(t.lat)
	lat := sortedCopy(t.lat)
	done := float64(t.completed)
	e := res.EndToEnd
	e["setup_s"] = median(setupS)
	e["wall_req_per_s"] = median(rate)
	e["cpu_us_per_req"] = median(cpuPer)
	e["allocs_per_req"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), done)
	e["alloc_bytes_per_req"] = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), done)
	e["peak_rss_mb"] = rss
	e["virt_req_per_s"] = ratio(done, (v1 - v0).Seconds())
	e["virt_lat_p50_us"] = float64(percentile(lat, 0.50)) / 1e3
	e["virt_lat_p99_us"] = float64(percentile(lat, 0.99)) / 1e3
	e["slo_attainment_pct"] = ratio(float64(t.within), float64(t.attempted)) * 100
	if traced {
		m := res.PerLayer
		m["driver.round_spread_pct"] = spreadPct(rate)
		m["driver.raw_req_per_s"] = median(rawRate)
		m["driver.speed_factor"] = median(factors)
		m["driver.offered_req_per_vs"] = ratio(float64(t.attempted), (v1 - v0).Seconds())
		m["driver.backlog_delay_p99_us"] = float64(percentile(sortedCopy(t.backlog), 0.99)) / 1e3
		m["driver.failed_pct"] = ratio(float64(t.misses()), float64(t.attempted)) * 100
	}
	return res, nil
}

// opSpans are the top-level spans, one per driver operation.
var opSpans = []string{"RunLAKE", "InferLAKE", "wave", "arrival"}

// spanP50 is the median duration over the spans with any of the names.
func spanP50(spans []span, names ...string) float64 {
	var durs []int64
	for _, s := range spans {
		for _, n := range names {
			if s.Name == n {
				durs = append(durs, s.End-s.Start)
			}
		}
	}
	return float64(percentile(sortedCopy(durs), 0.50))
}

// spanMetrics derives the per-layer wall metrics that come from the driver's
// own spans.
func spanMetrics(m map[string]float64, spans []span, sum map[string]*spanStats) {
	for _, name := range opSpans {
		if st := sum[name]; st != nil {
			m["driver.wall_op_p50_us"] = float64(st.P50) / 1e3
			m["driver.wall_op_p99_us"] = float64(st.P99) / 1e3
		}
	}
	// A Submit that triggered no flush is fleet + batcher admission and
	// staging; a Submit or Wait that did is the flush itself.
	m["fleet.submit_ns_p50"] = spanP50(spans, "Submit")
	m["batcher.flush_ns_p50"] = spanP50(spans, "Submit+flush", "Wait+flush")
	m["batcher.flush_ns_per_item"] = ratio(m["batcher.flush_ns_p50"], m["batcher.avg_batch"])
}

// ledger reconciles the wall clock: calls into each layer over the timed
// rounds times that layer's probe median, against the rounds' wall time. The
// layers counted do not overlap — a no-flush Submit (router, admission,
// staging), a remoted call (codec, ring crossing, dispatch, journal, events;
// the probe call reaches no device), a device launch, a forward pass — and
// what they leave over is the driver, gather/scatter, copies and unpacking.
// Rows outside tolerance are flagged, not failed.
func ledger(m map[string]float64, a, b counters, items float64, wall time.Duration) []string {
	parts := []struct {
		name string
		ns   float64
	}{
		{"fleet+batcher submit", float64(b.bat.Requests-a.bat.Requests) * m["fleet.submit_ns_p50"]},
		{"remoting calls", float64(b.calls-a.calls) * m["remoting.call_ns_p50"]},
		{"gpu launches", float64(b.launches-a.launches) * m["gpu.execute_ns_p50"]},
		{"nn forwards", items * m["nn.forward_ns_p50"]},
	}
	var sum float64
	for _, p := range parts {
		sum += p.ns
	}
	m["ledger.wall_accounted_pct"] = ratio(sum, float64(wall)) * 100
	var notes []string
	if pct := m["ledger.wall_accounted_pct"]; pct < 70 || pct > 130 {
		notes = append(notes, fmt.Sprintf("ledger.wall_accounted_pct %.1f outside 70-130: unaccounted remainder %.1f ms of %.1f ms timed wall",
			pct, (float64(wall)-sum)/1e6, float64(wall)/1e6))
	}
	if pct := m["ledger.virt_accounted_pct"]; pct < 99 || pct > 101 {
		per := m["flightrec.stage_per_call_vns"]
		notes = append(notes, fmt.Sprintf("ledger.virt_accounted_pct %.2f outside 99-101: unaccounted remainder %.0f vns of %.0f vns per call",
			pct, per*(1-pct/100), per))
	}
	return notes
}
