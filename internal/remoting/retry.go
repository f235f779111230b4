package remoting

import (
	"errors"
	"time"
)

// ErrDaemonDead reports a remoted call abandoned because lakeD was declared
// dead and could not be recovered. Callers should route to the CPU
// fallback; the stub layer maps it to cuda.ErrNotReady.
var ErrDaemonDead = errors.New("remoting: lakeD declared dead")

// The retry schedule an armed Lib runs, mirroring a kernel client's netlink
// retry posture: retryAttempts tries a round, a retryBase wait after the
// first failure doubling after each further one, each wait spread
// uniformly over [1-retryJitter, 1+retryJitter) of its nominal value by a
// PRNG seeded with 0, and at most maxRecoveries RecoveryHook rounds a
// call. Backoff waits advance the virtual clock — a retrying kernel client
// really does burn that time. Attempts × recoveries bound every call.
const (
	retryAttempts = 4
	retryBase     = 50 * time.Microsecond
	retryJitter   = 0.25
	maxRecoveries = 2
)

// backoff returns the wait before retrying after the attempt-th failure
// (0-based) of a round, with draw in [0, 1) supplying the jitter.
func backoff(attempt int, draw float64) time.Duration {
	d := float64(retryBase)
	for i := 0; i < attempt; i++ {
		d *= 2
	}
	d *= 1 - retryJitter + 2*retryJitter*draw
	return time.Duration(d)
}

// RecoveryHook is the supervisor's entry point into the client retry path:
// Lib calls DaemonUnresponsive when one remoted call exhausts a full retry
// round. Returning true means the daemon was recovered (restarted and
// re-attached) and the call should be redelivered — the daemon-side
// sequence journal guarantees redelivery executes at most once. Returning
// false abandons the call with ErrDaemonDead. Lib calls DaemonRecovered
// when a call completes after one or more such rounds: the daemon answered,
// so it is alive. A call that needed no recovery round calls neither.
type RecoveryHook interface {
	DaemonUnresponsive() bool
	DaemonRecovered()
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
	// DaemonDead counts abandoned calls.
	DaemonDead int64
}
