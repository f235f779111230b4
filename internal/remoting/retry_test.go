package remoting

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"lakego/internal/cuda"
	"lakego/internal/faults"
)

// TestBackoffForSchedule pins the production schedule: each attempt's
// wait at the jitter floor, midpoint and just below the ceiling, and the
// first three waits an armed Lib draws from its seed-0 stream.
func TestBackoffForSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(0))
	cases := []struct {
		name    string
		attempt int
		draw    float64
		want    time.Duration
	}{
		{"first, jitter floor", 0, 0, 37500 * time.Nanosecond}, // 50µs * (1 - 0.25)
		{"first, nominal", 0, 0.5, 50 * time.Microsecond},
		{"first, below ceiling", 0, 0.999999, 62499 * time.Nanosecond}, // 62499.975ns, truncated
		{"second, jitter floor", 1, 0, 75 * time.Microsecond},
		{"second, nominal", 1, 0.5, 100 * time.Microsecond},
		{"second, below ceiling", 1, 0.999999, 124999 * time.Nanosecond},
		{"third, jitter floor", 2, 0, 150 * time.Microsecond},
		{"third, nominal", 2, 0.5, 200 * time.Microsecond},
		{"third, below ceiling", 2, 0.999999, 249999 * time.Nanosecond},
		{"seed-0 stream, first", 0, rng.Float64(), 61129 * time.Nanosecond},
		{"seed-0 stream, second", 1, rng.Float64(), 87248 * time.Nanosecond},
		{"seed-0 stream, third", 2, rng.Float64(), 215595 * time.Nanosecond},
	}
	for _, tc := range cases {
		if got := backoff(tc.attempt, tc.draw); got != tc.want {
			t.Errorf("%s: backoff(%d, %v) = %v, want %v", tc.name, tc.attempt, tc.draw, got, tc.want)
		}
	}
}

// Two armed libs riding out the same total loss wait out the same jitter
// draws, so their virtual clocks end bit-identical.
func TestBackoffDeterministicAcrossRuns(t *testing.T) {
	var clocks [2]time.Duration
	for i := range clocks {
		s := newStack(t)
		plane := faults.NewPlane(faults.Mix{Drop: 1, Seed: 14}, s.clock)
		s.tr.InjectFaults(plane)
		s.lib.EnableResilience(&healHook{plane: plane})
		if r := s.lib.CuInit(); r != cuda.Success {
			t.Fatalf("run %d: CuInit did not recover after heal: %s", i, r)
		}
		clocks[i] = s.clock.Now()
	}
	if clocks[0] != clocks[1] {
		t.Fatalf("same schedule ended at %v vs %v", clocks[0], clocks[1])
	}
}

// healHook clears the fault plane on its first invocation and reports the
// daemon recovered, modeling a supervisor fixing the channel; recovered
// counts the calls that completed after a recovery round.
type healHook struct {
	plane     *faults.Plane
	calls     int
	recovered int
}

func (h *healHook) DaemonUnresponsive(int) bool {
	h.calls++
	h.plane.SetMix(faults.Mix{})
	return true
}

func (h *healHook) DaemonRecovered() { h.recovered++ }

// restartHook restarts the daemon process, modeling the supervisor path:
// like the supervisor, it gives the daemon up after two recovery rounds.
type restartHook struct {
	d     *Daemon
	calls int
}

func (h *restartHook) DaemonUnresponsive(round int) bool {
	h.calls++
	if round >= 2 {
		return false
	}
	h.d.Restart()
	return true
}

func (h *restartHook) DaemonRecovered() {}

// roundHook grants a fresh retry round on each of a call's first two
// exhausted ones, as the supervisor does while the daemon process is
// visibly alive, and gives the daemon up on the third.
type roundHook struct{}

func (roundHook) DaemonUnresponsive(round int) bool { return round < 2 }

func (roundHook) DaemonRecovered() {}

func TestResilientCallSurvivesDrops(t *testing.T) {
	s := newStack(t)
	plane := faults.NewPlane(faults.Mix{Drop: 0.3, Seed: 11}, s.clock)
	s.tr.InjectFaults(plane)
	// One round of the schedule cannot ride out a 30% drop storm; the
	// hook's extra rounds must.
	s.lib.EnableResilience(roundHook{})
	if r := s.lib.CuInit(); r != cuda.Success {
		t.Fatalf("CuInit under 30%% drop: %s", r)
	}
	for i := 0; i < 200; i++ {
		ptr, r := s.lib.CuMemAlloc(64)
		if r != cuda.Success {
			t.Fatalf("alloc %d under 30%% drop: %s", i, r)
		}
		if r := s.lib.CuMemFree(ptr); r != cuda.Success {
			t.Fatalf("free %d under 30%% drop: %s", i, r)
		}
	}
	st := s.lib.ResilienceStats()
	if st.Retries == 0 {
		t.Fatal("30% drop over 400 calls produced zero retries")
	}
	if st.DaemonDead != 0 {
		t.Fatalf("unexpected abandoned calls: %+v", st)
	}
}

func TestResilientCallSurvivesCorruption(t *testing.T) {
	s := newStack(t)
	plane := faults.NewPlane(faults.Mix{Corrupt: 0.3, Seed: 12}, s.clock)
	s.tr.InjectFaults(plane)
	s.lib.EnableResilience(roundHook{})
	if r := s.lib.CuInit(); r != cuda.Success {
		t.Fatalf("CuInit under 30%% corruption: %s", r)
	}
	for i := 0; i < 200; i++ {
		if _, r := s.lib.CuDeviceGetCount(); r != cuda.Success {
			t.Fatalf("call %d under corruption: %s", i, r)
		}
	}
	st := s.lib.ResilienceStats()
	if st.CorruptResponses == 0 && st.Retries == 0 {
		t.Fatal("30% corruption left no trace in resilience stats")
	}
}

func TestDaemonDeadMapsToNotReady(t *testing.T) {
	s := newStack(t)
	s.lib.EnableResilience(nil) // no hook: dead stays dead
	if r := s.lib.CuInit(); r != cuda.Success {
		t.Fatal(r)
	}
	s.daemon.InjectCrash(false)
	if _, r := s.lib.CuMemAlloc(64); r != cuda.ErrNotReady {
		t.Fatalf("crashed daemon without recovery returned %s, want CUDA_ERROR_SYSTEM_NOT_READY", r)
	}
	if s.lib.Healthy() {
		t.Fatal("lib still healthy after declaring the daemon dead")
	}
	// Later calls fail fast on the latch.
	before := s.lib.ResilienceStats()
	if _, r := s.lib.CuMemAlloc(64); r != cuda.ErrNotReady {
		t.Fatal("latched-dead call did not return ErrNotReady")
	}
	after := s.lib.ResilienceStats()
	if after.DaemonDead != before.DaemonDead+1 || after.Retries != before.Retries {
		t.Fatalf("latched-dead call retried: before %+v after %+v", before, after)
	}
	// The give-up is terminal: a restarted daemon does not clear it.
	s.daemon.Restart()
	if _, r := s.lib.CuMemAlloc(64); r != cuda.ErrNotReady || s.lib.Healthy() {
		t.Fatalf("call after a restart behind the latch = %s, healthy %v; want ErrNotReady, latched", r, s.lib.Healthy())
	}
}

func TestRecoveryHookHealsChannel(t *testing.T) {
	s := newStack(t)
	plane := faults.NewPlane(faults.Mix{Drop: 1, Seed: 14}, s.clock)
	s.tr.InjectFaults(plane)
	hook := &healHook{plane: plane}
	s.lib.EnableResilience(hook)
	if r := s.lib.CuInit(); r != cuda.Success {
		t.Fatalf("CuInit did not recover after heal: %s", r)
	}
	if hook.calls != 1 {
		t.Fatalf("hook invoked %d times, want 1", hook.calls)
	}
	// The call that got through after the round reports the daemon alive;
	// a call that needed no round reports nothing.
	if hook.recovered != 1 {
		t.Fatalf("DaemonRecovered invoked %d times after the healed call, want 1", hook.recovered)
	}
	if r := s.lib.CuInit(); r != cuda.Success || hook.recovered != 1 {
		t.Fatalf("happy call: %s, DaemonRecovered invoked %d times in all, want 1", r, hook.recovered)
	}
	st := s.lib.ResilienceStats()
	if st.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", st.Recoveries)
	}
	// Three backoffs (between the four failed attempts) must have advanced
	// the virtual clock by at least the jitter floor of the schedule.
	min := backoff(0, 0) + backoff(1, 0) + backoff(2, 0)
	if s.clock.Now() < min {
		t.Fatalf("clock advanced %v, want >= %v of backoff", s.clock.Now(), min)
	}
}

func TestCrashAfterExecRedeliversExactlyOnce(t *testing.T) {
	s := newStack(t)
	hook := &restartHook{d: s.daemon}
	s.lib.EnableResilience(hook)
	if r := s.lib.CuInit(); r != cuda.Success {
		t.Fatal(r)
	}
	execBefore := s.daemon.Executed()

	// The daemon will execute the next command, journal its response,
	// then die before sending it.
	s.daemon.InjectCrash(true)
	ptr, r := s.lib.CuMemAlloc(128)
	if r != cuda.Success {
		t.Fatalf("alloc across crash-after-exec: %s", r)
	}
	if hook.calls == 0 {
		t.Fatal("crash did not reach the recovery hook")
	}
	if got := s.daemon.Executed() - execBefore; got != 1 {
		t.Fatalf("command executed %d times across the crash, want exactly 1", got)
	}
	if s.daemon.Redelivered() == 0 {
		t.Fatal("redelivery was not served from the journal")
	}
	if r := s.lib.CuMemFree(ptr); r != cuda.Success {
		t.Fatalf("the allocation from the crashed exchange is not live: %s", r)
	}
}

func TestCrashBeforeExecRedeliversExactlyOnce(t *testing.T) {
	s := newStack(t)
	hook := &restartHook{d: s.daemon}
	s.lib.EnableResilience(hook)
	if r := s.lib.CuInit(); r != cuda.Success {
		t.Fatal(r)
	}
	execBefore := s.daemon.Executed()
	s.daemon.InjectCrash(false) // dies holding the consumed command
	if _, r := s.lib.CuMemAlloc(128); r != cuda.Success {
		t.Fatalf("alloc across crash-before-exec: %s", r)
	}
	if got := s.daemon.Executed() - execBefore; got != 1 {
		t.Fatalf("command executed %d times across the crash, want exactly 1", got)
	}
}

func TestDaemonErrorsCarryCommandContext(t *testing.T) {
	s := newStack(t)
	s.lib.CuInit()
	// An unknown module function fails inside the daemon; its log entry
	// must name the command and sequence.
	if _, r := s.lib.CuModuleGetFunction(9999, "nope"); r == cuda.Success {
		t.Fatal("bogus module lookup succeeded")
	}
	errs := s.daemon.Errors()
	if len(errs) == 0 {
		t.Fatal("daemon recorded no errors")
	}
	last := errs[len(errs)-1]
	for _, want := range []string{"cuModuleGetFunction", "seq="} {
		if !strings.Contains(last, want) {
			t.Fatalf("error %q missing %q", last, want)
		}
	}
}
