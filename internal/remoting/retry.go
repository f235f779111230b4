package remoting

import (
	"errors"
	"time"
)

// ErrDeadlineExceeded reports a remoted call that ran out of its virtual-
// time budget (Resilience.CallDeadline) before a response arrived.
var ErrDeadlineExceeded = errors.New("remoting: call deadline exceeded")

// ErrDaemonDead reports a remoted call abandoned because lakeD was declared
// dead and could not be recovered. Callers should route to the CPU
// fallback; the stub layer maps it to cuda.ErrNotReady.
var ErrDaemonDead = errors.New("remoting: lakeD declared dead")

// RetryPolicy is the bounded exponential-backoff schedule a resilient Lib
// applies between attempts of one remoted call. Backoff waits advance the
// virtual clock — a retrying kernel client really does burn that time.
type RetryPolicy struct {
	// MaxAttempts bounds tries per recovery round (>=1).
	MaxAttempts int
	// BaseBackoff is the wait after the first failed attempt; each further
	// failure multiplies it by Multiplier, capped at MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	Multiplier  float64
	// Jitter spreads each wait uniformly over [1-Jitter, 1+Jitter) of its
	// nominal value, decorrelating concurrent retriers. The draw comes
	// from the Lib's seeded PRNG, so schedules are reproducible.
	Jitter float64
}

// DefaultRetryPolicy mirrors a kernel client's netlink retry posture:
// four tries, 50µs initial backoff doubling to a 2ms ceiling, ±25% jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: 50 * time.Microsecond,
		MaxBackoff:  2 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.25,
	}
}

func (rp RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
	if rp.MaxAttempts <= 0 {
		rp.MaxAttempts = d.MaxAttempts
	}
	if rp.BaseBackoff <= 0 {
		rp.BaseBackoff = d.BaseBackoff
	}
	if rp.MaxBackoff < rp.BaseBackoff {
		// Clamp to max(BaseBackoff, default): a caller with a base above the
		// default 2ms ceiling must not have every wait truncated below its
		// own first backoff.
		rp.MaxBackoff = d.MaxBackoff
		if rp.MaxBackoff < rp.BaseBackoff {
			rp.MaxBackoff = rp.BaseBackoff
		}
	}
	if rp.Multiplier < 1 {
		rp.Multiplier = d.Multiplier
	}
	if rp.Jitter < 0 || rp.Jitter >= 1 {
		rp.Jitter = 0
	}
	return rp
}

// BackoffFor returns the wait before retrying after the attempt-th failure
// (0-based). draw in [0, 1) supplies the deterministic jitter; with Jitter
// 0 the schedule is the pure capped exponential. Pure math, no clock:
// the table-driven tests pin the schedule exactly.
func (rp RetryPolicy) BackoffFor(attempt int, draw float64) time.Duration {
	d := float64(rp.BaseBackoff)
	for i := 0; i < attempt; i++ {
		d *= rp.Multiplier
		if d >= float64(rp.MaxBackoff) {
			d = float64(rp.MaxBackoff)
			break
		}
	}
	if d > float64(rp.MaxBackoff) {
		d = float64(rp.MaxBackoff)
	}
	if rp.Jitter > 0 {
		d *= 1 - rp.Jitter + 2*rp.Jitter*draw
	}
	return time.Duration(d)
}

// RecoveryHook is the supervisor's entry point into the client retry path:
// Lib calls DaemonUnresponsive when one remoted call exhausts a full retry
// round. Returning true means the daemon was recovered (restarted and
// re-attached) and the call should be redelivered — the daemon-side
// sequence journal guarantees redelivery executes at most once. Returning
// false abandons the call with ErrDaemonDead.
type RecoveryHook interface {
	DaemonUnresponsive(api APIID, seq uint64, err error) bool
}

// Resilience arms a Lib's client-side fault handling: per-call deadlines,
// bounded retry with exponential backoff and deterministic jitter, and the
// supervisor hook that recovers a dead daemon mid-call.
type Resilience struct {
	// Retry is the per-round backoff schedule (zero value = defaults).
	Retry RetryPolicy
	// CallDeadline bounds one call's total virtual time across attempts,
	// backoffs and recoveries. 0 means no deadline.
	CallDeadline time.Duration
	// MaxRecoveries bounds RecoveryHook invocations per call (each grants
	// a fresh retry round). Default 2.
	MaxRecoveries int
	// Seed initializes the jitter PRNG.
	Seed int64
	// Hook is notified when a call exhausts a retry round; nil means dead
	// daemons are never recovered in-call.
	Hook RecoveryHook
}

// DefaultResilience returns the default client robustness configuration
// (no deadline; the retry schedule of DefaultRetryPolicy).
func DefaultResilience() Resilience {
	return Resilience{Retry: DefaultRetryPolicy(), MaxRecoveries: 2}
}

// ResilienceStats counts client-side fault handling events, attributing
// chaos-run behavior: how often calls retried, what the demultiplexer
// discarded, and how recoveries resolved.
type ResilienceStats struct {
	// Retries counts failed attempts that were retried.
	Retries int64
	// StaleResponses counts demuxed frames whose sequence belonged to an
	// already-completed call (duplicates or redelivered responses).
	StaleResponses int64
	// CorruptResponses counts frames that failed to decode.
	CorruptResponses int64
	// Recoveries counts successful RecoveryHook round trips.
	Recoveries int64
	// DeadlineExceeded and DaemonDead count abandoned calls by cause.
	DeadlineExceeded, DaemonDead int64
}
