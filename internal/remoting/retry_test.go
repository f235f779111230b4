package remoting

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"lakego/internal/cuda"
	"lakego/internal/faults"
)

func TestBackoffForSchedule(t *testing.T) {
	rp := RetryPolicy{
		BaseBackoff: 50 * time.Microsecond,
		MaxBackoff:  2 * time.Millisecond,
		Multiplier:  2,
	}
	cases := []struct {
		name    string
		policy  RetryPolicy
		attempt int
		draw    float64
		want    time.Duration
	}{
		{"first, no jitter", rp, 0, 0.5, 50 * time.Microsecond},
		{"second doubles", rp, 1, 0.5, 100 * time.Microsecond},
		{"third doubles again", rp, 2, 0.5, 200 * time.Microsecond},
		{"capped at max", rp, 10, 0.5, 2 * time.Millisecond},
		{"far past cap stays capped", rp, 60, 0.5, 2 * time.Millisecond},
		{
			"jitter low edge",
			RetryPolicy{BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond, Multiplier: 2, Jitter: 0.25},
			0, 0,
			75 * time.Microsecond, // 100µs * (1 - 0.25)
		},
		{
			"jitter midpoint is nominal",
			RetryPolicy{BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond, Multiplier: 2, Jitter: 0.25},
			0, 0.5,
			100 * time.Microsecond,
		},
		{
			"jitter high edge",
			RetryPolicy{BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond, Multiplier: 2, Jitter: 0.25},
			0, 0.999999,
			// 100µs * (1 - 0.25 + 0.5*0.999999) = 124999.95ns, truncated
			124999 * time.Nanosecond,
		},
		{
			"multiplier 1 never grows",
			RetryPolicy{BaseBackoff: 30 * time.Microsecond, MaxBackoff: time.Millisecond, Multiplier: 1},
			5, 0.5,
			30 * time.Microsecond,
		},
	}
	for _, tc := range cases {
		if got := tc.policy.BackoffFor(tc.attempt, tc.draw); got != tc.want {
			t.Errorf("%s: BackoffFor(%d, %v) = %v, want %v", tc.name, tc.attempt, tc.draw, got, tc.want)
		}
	}
}

func TestBackoffDeterministicAcrossRuns(t *testing.T) {
	rp := DefaultRetryPolicy()
	r1, r2 := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for i := 0; i < 32; i++ {
		a := rp.BackoffFor(i%4, r1.Float64())
		b := rp.BackoffFor(i%4, r2.Float64())
		if a != b {
			t.Fatalf("step %d: same seed gave %v vs %v", i, a, b)
		}
	}
}

func TestRetryPolicyWithDefaults(t *testing.T) {
	// The zero value picks up every default except Jitter: an explicit 0
	// (no jitter) is indistinguishable from unset, and must stay 0 so the
	// schedule is exactly the capped exponential.
	d := DefaultRetryPolicy()
	d.Jitter = 0
	if got := (RetryPolicy{}).withDefaults(); got != d {
		t.Fatalf("zero policy defaulted to %+v, want %+v", got, d)
	}
	custom := RetryPolicy{MaxAttempts: 7, BaseBackoff: time.Microsecond, MaxBackoff: time.Second, Multiplier: 3, Jitter: 0.1}
	if got := custom.withDefaults(); got != custom {
		t.Fatalf("valid policy altered by withDefaults: %+v", got)
	}
	bad := RetryPolicy{Jitter: 1.5}.withDefaults()
	if bad.Jitter != 0 {
		t.Fatalf("out-of-range jitter kept: %v", bad.Jitter)
	}
}

// TestWithDefaultsMaxBackoffNeverBelowBase regresses the clamp bug: a
// BaseBackoff above the 2ms default ceiling with MaxBackoff unset used to
// leave MaxBackoff < BaseBackoff, truncating every wait below the caller's
// own first backoff.
func TestWithDefaultsMaxBackoffNeverBelowBase(t *testing.T) {
	d := DefaultRetryPolicy()
	cases := []struct {
		name    string
		policy  RetryPolicy
		wantMax time.Duration
	}{
		{"base above default cap, max unset", RetryPolicy{BaseBackoff: 5 * time.Millisecond}, 5 * time.Millisecond},
		{"base equals default cap, max unset", RetryPolicy{BaseBackoff: d.MaxBackoff}, d.MaxBackoff},
		{"base below default cap, max unset", RetryPolicy{BaseBackoff: 50 * time.Microsecond}, d.MaxBackoff},
		{"explicit max below base", RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: time.Millisecond}, 10 * time.Millisecond},
		{"explicit max above base kept", RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 20 * time.Millisecond}, 20 * time.Millisecond},
	}
	for _, tc := range cases {
		got := tc.policy.withDefaults()
		if got.MaxBackoff != tc.wantMax {
			t.Errorf("%s: MaxBackoff = %v, want %v", tc.name, got.MaxBackoff, tc.wantMax)
		}
		if got.MaxBackoff < got.BaseBackoff {
			t.Errorf("%s: MaxBackoff %v < BaseBackoff %v after withDefaults", tc.name, got.MaxBackoff, got.BaseBackoff)
		}
		// The first wait must be the full base, never truncated by the cap.
		if w := got.BackoffFor(0, 0.5); w < got.BaseBackoff {
			t.Errorf("%s: first backoff %v < base %v", tc.name, w, got.BaseBackoff)
		}
	}
}

// healHook clears the fault plane on its first invocation and reports the
// daemon recovered, modeling a supervisor fixing the channel.
type healHook struct {
	plane *faults.Plane
	calls int
}

func (h *healHook) DaemonUnresponsive(api APIID, seq uint64, err error) bool {
	h.calls++
	h.plane.SetMix(faults.Mix{})
	return true
}

// restartHook restarts the daemon process, modeling the supervisor path.
type restartHook struct {
	d     *Daemon
	calls int
}

func (h *restartHook) DaemonUnresponsive(api APIID, seq uint64, err error) bool {
	h.calls++
	h.d.Restart()
	return true
}

func TestResilientCallSurvivesDrops(t *testing.T) {
	s := newStack(t)
	plane := faults.NewPlane(faults.Mix{Drop: 0.3, Seed: 11}, s.clock)
	s.tr.InjectFaults(plane)
	// No recovery hook: the retry round alone must ride out the loss, so
	// give it enough attempts that a 30% drop storm cannot exhaust it.
	s.lib.EnableResilience(Resilience{Seed: 1, Retry: RetryPolicy{MaxAttempts: 16}})
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
	if st.DaemonDead != 0 || st.DeadlineExceeded != 0 {
		t.Fatalf("unexpected abandoned calls: %+v", st)
	}
}

func TestResilientCallSurvivesCorruption(t *testing.T) {
	s := newStack(t)
	plane := faults.NewPlane(faults.Mix{Corrupt: 0.3, Seed: 12}, s.clock)
	s.tr.InjectFaults(plane)
	s.lib.EnableResilience(Resilience{Seed: 2, Retry: RetryPolicy{MaxAttempts: 16}})
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

func TestCallDeadlineExceeded(t *testing.T) {
	s := newStack(t)
	plane := faults.NewPlane(faults.Mix{Drop: 1, Seed: 13}, s.clock)
	s.tr.InjectFaults(plane)
	s.lib.EnableResilience(Resilience{CallDeadline: 100 * time.Microsecond, Seed: 3})
	cs := s.lib.newCall(APICuDeviceGetCount)
	defer s.lib.done(cs)
	err := s.lib.call(cs)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("total loss with 100µs deadline returned %v, want ErrDeadlineExceeded", err)
	}
	if st := s.lib.ResilienceStats(); st.DeadlineExceeded != 1 {
		t.Fatalf("DeadlineExceeded = %d, want 1", st.DeadlineExceeded)
	}
}

func TestDaemonDeadMapsToNotReady(t *testing.T) {
	s := newStack(t)
	s.lib.EnableResilience(Resilience{Seed: 4}) // no hook: dead stays dead
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
	// Manual recovery restores service.
	s.daemon.Restart()
	s.lib.MarkRecovered()
	if _, r := s.lib.CuMemAlloc(64); r != cuda.Success {
		t.Fatalf("post-recovery alloc failed: %s", r)
	}
}

func TestRecoveryHookHealsChannel(t *testing.T) {
	s := newStack(t)
	plane := faults.NewPlane(faults.Mix{Drop: 1, Seed: 14}, s.clock)
	s.tr.InjectFaults(plane)
	hook := &healHook{plane: plane}
	s.lib.EnableResilience(Resilience{Seed: 5, Hook: hook})
	if r := s.lib.CuInit(); r != cuda.Success {
		t.Fatalf("CuInit did not recover after heal: %s", r)
	}
	if hook.calls != 1 {
		t.Fatalf("hook invoked %d times, want 1", hook.calls)
	}
	st := s.lib.ResilienceStats()
	if st.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", st.Recoveries)
	}
	// Three backoffs (between the four failed attempts) must have advanced
	// the virtual clock by at least the jitter floor of the schedule.
	rp := DefaultRetryPolicy()
	min := time.Duration(float64(rp.BackoffFor(0, 0)+rp.BackoffFor(1, 0)+rp.BackoffFor(2, 0)) * 1.0)
	if s.clock.Now() < min {
		t.Fatalf("clock advanced %v, want >= %v of backoff", s.clock.Now(), min)
	}
}

func TestCrashAfterExecRedeliversExactlyOnce(t *testing.T) {
	s := newStack(t)
	hook := &restartHook{d: s.daemon}
	s.lib.EnableResilience(Resilience{Seed: 6, Hook: hook})
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
	s.lib.EnableResilience(Resilience{Seed: 7, Hook: hook})
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

func TestPingReportsGeneration(t *testing.T) {
	s := newStack(t)
	s.lib.EnableResilience(Resilience{Seed: 8})
	gen, _, ok := s.lib.Ping()
	if !ok || gen != 0 {
		t.Fatalf("ping: gen=%d ok=%v, want gen=0 ok=true", gen, ok)
	}
	s.daemon.Restart()
	gen, _, ok = s.lib.Ping()
	if !ok || gen != 1 {
		t.Fatalf("post-restart ping: gen=%d ok=%v, want gen=1 ok=true", gen, ok)
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
