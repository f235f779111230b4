// Chaos harness: the full LAKE stack — lakeLib stubs, wire protocol,
// lakeD, and the three §7 workloads — driven under injected channel and
// daemon faults. Every swept mix must preserve exactly-once call semantics
// (no lost results, no re-executed commands) with bit-correct predictions
// and bounded tail latency; a crash-free run with the whole fault/recovery
// machinery armed must be bit-identical to the plain runtime.
package lake_test

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	lake "lakego"
	"lakego/internal/kml"
	"lakego/internal/linnos"
	"lakego/internal/mllb"
	"lakego/internal/nn"
)

// dumpOnFailure arms the kernel-style post-mortem: if the test fails and
// LAKE_CHAOS_DUMP_DIR is set (the CI chaos job sets it and uploads the
// directory as a workflow artifact), the runtime's flight recorder is
// snapshotted to <dir>/<TestName>.json for offline analysis with
// `go run ./cmd/laketrace <file>`.
func dumpOnFailure(t *testing.T, rt *lake.Runtime) {
	t.Cleanup(func() {
		dir := os.Getenv("LAKE_CHAOS_DUMP_DIR")
		if dir == "" || !t.Failed() {
			return
		}
		rec := rt.FlightRecorder()
		if rec == nil {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("flight-recorder dump: %v", err)
			return
		}
		path := filepath.Join(dir, strings.ReplaceAll(t.Name(), "/", "_")+".json")
		body, err := rec.Snapshot("test-failure").JSON()
		if err == nil {
			err = os.WriteFile(path, body, 0o644)
		}
		if err != nil {
			t.Logf("flight-recorder dump: %v", err)
			return
		}
		t.Logf("flight-recorder dump written to %s (analyze with: go run ./cmd/laketrace %s)", path, path)
	})
}

// chaosStack is one booted runtime carrying the three evaluation workloads.
type chaosStack struct {
	rt  *lake.Runtime
	lin *linnos.Predictor
	km  *kml.Classifier
	ml  *mllb.Balancer
}

func newChaosStack(t *testing.T, mix *lake.FaultMix) *chaosStack {
	return newChaosStackOn(t, mix, lake.Netlink)
}

// newChaosStackOn boots the chaos stack on an explicit command channel; the
// ring bit-identity sweep runs the same workloads over both transports.
func newChaosStackOn(t *testing.T, mix *lake.FaultMix, ch lake.ChannelKind) *chaosStack {
	t.Helper()
	cfg := lake.DefaultConfig()
	cfg.Faults = mix
	cfg.Channel = ch
	rt, err := lake.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	dumpOnFailure(t, rt)
	lin, err := linnos.NewPredictor(rt, linnos.Base, nn.New(11, linnos.Base.Sizes()...))
	if err != nil {
		t.Fatal(err)
	}
	km, err := kml.New(rt, nn.New(12, kml.Sizes()...))
	if err != nil {
		t.Fatal(err)
	}
	ml, err := mllb.New(rt, nn.New(13, mllb.Sizes()...))
	if err != nil {
		t.Fatal(err)
	}
	return &chaosStack{rt: rt, lin: lin, km: km, ml: ml}
}

// chaosBatchOf builds a deterministic input batch: round and width fix the
// contents, so every run (clean or faulty) sees identical workloads.
func chaosBatchOf(width, round, n int) [][]float32 {
	batch := make([][]float32, n)
	for i := range batch {
		x := make([]float32, width)
		for j := range x {
			x[j] = float32((round*31+i*7+j*3)%17) / 17
		}
		batch[i] = x
	}
	return batch
}

func chaosRounds() int {
	if testing.Short() {
		return 12
	}
	return 40
}

// runChaosWorkloads drives the three workloads through their policy-routed
// paths, verifying every prediction against a direct forward pass of the
// same network (the ground truth no fault may alter). It returns a digest
// of all predictions and the per-call virtual-time latencies.
func runChaosWorkloads(t *testing.T, s *chaosStack, rounds, batch int) (digest []int, lats []time.Duration) {
	t.Helper()
	clock := s.rt.Clock()
	timeCall := func(f func()) {
		start := clock.Now()
		f()
		lats = append(lats, clock.Now()-start)
	}
	for round := 0; round < rounds; round++ {
		linBatch := chaosBatchOf(linnos.InputWidth, round, batch)
		timeCall(func() {
			slow, _, _, err := s.lin.InferAuto(linBatch, nil)
			if err != nil {
				t.Fatalf("round %d linnos: %v", round, err)
			}
			for i, x := range linBatch {
				logits := s.lin.Net().Forward(x)
				if want := logits[1] > logits[0]; slow[i] != want {
					t.Fatalf("round %d linnos item %d: got %v, reference %v", round, i, slow[i], want)
				}
				digest = append(digest, boolBit(slow[i]))
			}
		})

		kmBatch := chaosBatchOf(kml.InputWidth, round, batch)
		timeCall(func() {
			pats, _, _, err := s.km.InferAuto(kmBatch, nil)
			if err != nil {
				t.Fatalf("round %d kml: %v", round, err)
			}
			for i, x := range kmBatch {
				out := s.km.Net().Forward(x)
				want, best := 0, out[0]
				for c := 1; c < len(out); c++ {
					if out[c] > best {
						want, best = c, out[c]
					}
				}
				if int(pats[i]) != want {
					t.Fatalf("round %d kml item %d: got %d, reference %d", round, i, pats[i], want)
				}
				digest = append(digest, int(pats[i]))
			}
		})

		mlBatch := chaosBatchOf(mllb.InputWidth, round, batch)
		timeCall(func() {
			migrate, _, _, err := s.ml.InferAuto(mlBatch, nil)
			if err != nil {
				t.Fatalf("round %d mllb: %v", round, err)
			}
			for i, x := range mlBatch {
				y := s.ml.Net().Forward(x)
				if want := y[1] > y[0]; migrate[i] != want {
					t.Fatalf("round %d mllb item %d: got %v, reference %v", round, i, migrate[i], want)
				}
				digest = append(digest, boolBit(migrate[i]))
			}
		})
	}
	return digest, lats
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}

func percentile(lats []time.Duration, p float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(float64(len(s)-1)*p)]
}

// TestChaosSweep is the harness entry point: every fault mix up to 5%
// drops, doubled channel delay, and random daemon crashes must leave all
// workload calls completed exactly-once with reference-matching results
// and bounded p99 latency.
func TestChaosSweep(t *testing.T) {
	rounds, batch := chaosRounds(), 16

	// Reference run: clean stack, same workload script. Its daemon-executed
	// count is the exactly-once yardstick — a faulty run that loses a
	// command executes fewer, one that re-executes a redelivery executes
	// more.
	clean := newChaosStack(t, nil)
	cleanDigest, _ := runChaosWorkloads(t, clean, rounds, batch)
	cleanExec := clean.rt.Daemon().Executed()

	mixes := []struct {
		name string
		mix  lake.FaultMix
		long bool // skipped in -short
	}{
		{"drop1", lake.FaultMix{Drop: 0.01, Seed: 101}, true},
		{"drop5", lake.FaultMix{Drop: 0.05, Seed: 102}, false},
		{"dup2", lake.FaultMix{Duplicate: 0.02, Seed: 103}, true},
		{"corrupt1", lake.FaultMix{Corrupt: 0.01, Seed: 104}, true},
		{"delay2x", lake.FaultMix{Delay: 0.5, DelayMin: 30 * time.Microsecond, DelayMax: 60 * time.Microsecond, Seed: 105}, false},
		{"crash", lake.FaultMix{Crash: 0.01, Seed: 106}, false},
		{"mixed", lake.FaultMix{
			Drop: 0.05, Corrupt: 0.01, Duplicate: 0.02,
			Delay: 0.1, DelayMin: 20 * time.Microsecond, DelayMax: 60 * time.Microsecond,
			Crash: 0.005, Seed: 107,
		}, false},
	}
	for _, tc := range mixes {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("reduced sweep in -short")
			}
			s := newChaosStack(t, &tc.mix)
			digest, lats := runChaosWorkloads(t, s, rounds, batch)

			if len(digest) != len(cleanDigest) {
				t.Fatalf("digest length %d != clean %d", len(digest), len(cleanDigest))
			}
			for i := range digest {
				if digest[i] != cleanDigest[i] {
					t.Fatalf("prediction %d diverged from clean run: %d vs %d", i, digest[i], cleanDigest[i])
				}
			}

			// Exactly-once: every distinct command executed exactly once —
			// none lost, no redelivery re-executed.
			if got := s.rt.Daemon().Executed(); got != cleanExec {
				t.Fatalf("daemon executed %d distinct commands, clean run executed %d", got, cleanExec)
			}
			rs := s.rt.Lib().ResilienceStats()
			if rs.DaemonDead != 0 {
				t.Fatalf("abandoned calls under %s: %+v", tc.name, rs)
			}

			// The mix must actually have fired, or the sweep proves nothing.
			fs := s.rt.FaultPlane().Stats()
			injected := fs.Dropped + fs.Corrupted + fs.Duplicated + fs.Delayed + fs.Crashes()
			if injected == 0 {
				t.Fatalf("mix %s injected no faults over %d messages", tc.name, fs.Messages)
			}
			if tc.mix.Crash > 0 {
				if fs.Crashes() == 0 {
					t.Fatalf("crash mix produced no crashes over %d messages", fs.Messages)
				}
				if s.rt.Daemon().Restarts() == 0 {
					t.Fatal("daemon crashed but was never restarted")
				}
			}

			// Tail latency stays bounded: retries, redeliveries and restarts
			// cost microseconds-to-milliseconds, never unbounded stalls.
			p99 := percentile(lats, 0.99)
			if p99 > 10*time.Millisecond {
				t.Fatalf("p99 call latency %v exceeds 10ms under %s", p99, tc.name)
			}
			t.Logf("%s: %d faults over %d messages, %d retries, %d redeliveries, %d restarts, p99=%v",
				tc.name, injected, fs.Messages, rs.Retries,
				s.rt.Daemon().Redelivered(), s.rt.Daemon().Restarts(), p99)
		})
	}
}

// TestChaosCrashFreeBitIdentical pins the zero-overhead guarantee: a run
// with the fault plane attached (all rates zero) and resilience + the
// supervisor armed is bit-identical — same predictions, same virtual
// clock, same wire traffic — to the plain runtime.
func TestChaosCrashFreeBitIdentical(t *testing.T) {
	rounds, batch := chaosRounds(), 8

	plain := newChaosStack(t, nil)
	plainDigest, plainLats := runChaosWorkloads(t, plain, rounds, batch)
	plainStats := plain.rt.Stats()

	armed := newChaosStack(t, &lake.FaultMix{Seed: 99}) // zero rates: nothing fires
	armedDigest, armedLats := runChaosWorkloads(t, armed, rounds, batch)
	armedStats := armed.rt.Stats()

	if len(plainDigest) != len(armedDigest) {
		t.Fatalf("digest lengths differ: %d vs %d", len(plainDigest), len(armedDigest))
	}
	for i := range plainDigest {
		if plainDigest[i] != armedDigest[i] {
			t.Fatalf("prediction %d differs: plain %d, armed %d", i, plainDigest[i], armedDigest[i])
		}
	}
	for i := range plainLats {
		if plainLats[i] != armedLats[i] {
			t.Fatalf("call %d latency differs: plain %v, armed %v", i, plainLats[i], armedLats[i])
		}
	}
	if plainStats.VirtualTime != armedStats.VirtualTime {
		t.Fatalf("virtual clocks diverged: plain %v, armed %v", plainStats.VirtualTime, armedStats.VirtualTime)
	}
	if plainStats.RemotedCalls != armedStats.RemotedCalls ||
		plainStats.ChannelTime != armedStats.ChannelTime ||
		plainStats.DaemonHandled != armedStats.DaemonHandled ||
		plainStats.KernelLaunches != armedStats.KernelLaunches {
		t.Fatalf("runtime stats diverged:\nplain %+v\narmed %+v", plainStats, armedStats)
	}
	if s := armed.rt.FaultPlane().Stats(); s != (lake.FaultStats{}) {
		t.Fatalf("zero-rate plane injected faults: %+v", s)
	}
	if rs := armed.rt.Lib().ResilienceStats(); rs != (lake.ResilienceStats{}) {
		t.Fatalf("crash-free armed run recorded resilience events: %+v", rs)
	}
}

// TestChaosCrashMidBatchRace is the dedicated -race crash test: concurrent
// batcher clients keep submitting while daemon crashes land mid-flight
// (both before and after command execution), recovered by the in-call
// supervisor path. Every request must complete with reference-matching
// outputs — nothing lost, nothing duplicated.
func TestChaosCrashMidBatchRace(t *testing.T) {
	cfg := lake.DefaultConfig()
	cfg.Faults = &lake.FaultMix{Seed: 21} // plane attached; crashes injected manually
	rt, err := lake.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	dumpOnFailure(t, rt)

	net := nn.New(31, 8, 16, 2)
	b := lake.NewBatcher(rt, lake.DefaultBatcherConfig())
	if err := b.RegisterModel(lake.BatcherModel{
		Name:       "chaosnet",
		InputWidth: 8, OutputWidth: 2,
		MaxBatch:     64,
		CPUFixed:     2 * time.Microsecond,
		CPUPerItem:   time.Microsecond,
		FlopsPerItem: 300,
		Forward:      net.Forward,
	}); err != nil {
		t.Fatal(err)
	}

	// Arm one crash before any submitter runs so at least one restart
	// happens regardless of goroutine scheduling.
	rt.Daemon().InjectCrash(true)

	const workers, per = 4, 40
	var submitters sync.WaitGroup
	errs := make(chan string, workers*per)
	for w := 0; w < workers; w++ {
		submitters.Add(1)
		go func(w int) {
			defer submitters.Done()
			client := b.Client("chaos-client")
			for i := 0; i < per; i++ {
				item := make([]float32, 8)
				for j := range item {
					item[j] = float32((w*per+i+j)%13) / 13
				}
				out, err := client.Infer("chaosnet", [][]float32{item})
				if err != nil {
					errs <- "infer: " + err.Error()
					return
				}
				want := net.Forward(item)
				if len(out) != 1 || len(out[0]) != len(want) {
					errs <- "wrong output shape"
					return
				}
				for j := range want {
					if out[0][j] != want[j] {
						errs <- "output diverged from reference forward pass"
						return
					}
				}
			}
		}(w)
	}

	// Chaos driver: keep crashing the daemon — alternating before-exec and
	// after-exec placements — under the submitters' in-call recovery.
	stop := make(chan struct{})
	var driver sync.WaitGroup
	driver.Add(1)
	go func() {
		defer driver.Done()
		daemon := rt.Daemon()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			daemon.InjectCrash(i%2 == 0)
			time.Sleep(50 * time.Microsecond)
		}
	}()

	submitters.Wait()
	close(stop)
	driver.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	st := b.Stats()
	if got := int(st.Requests); got != workers*per {
		t.Fatalf("batcher accepted %d requests, want %d", got, workers*per)
	}
	if rt.Daemon().Restarts() == 0 {
		t.Fatal("no daemon restarts despite injected crashes")
	}
	// The stack must still be usable after the storm (a pending injected
	// crash may claim one more command; recovery absorbs it).
	if _, r := rt.Lib().CuDeviceGetCount(); r != lake.Success {
		t.Fatalf("post-chaos stack unusable: %s", r)
	}
	t.Logf("restarts=%d redelivered=%d fallbackFlushes=%d requests=%d",
		rt.Daemon().Restarts(), rt.Daemon().Redelivered(), st.FallbackFlushes, st.Requests)
}
