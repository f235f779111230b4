package core

import (
	"fmt"
	"sync"
	"time"

	"lakego/internal/flightrec"
	"lakego/internal/remoting"
	"lakego/internal/telemetry"
	"lakego/internal/vtime"
)

// DaemonState is the supervisor's view of lakeD, following the recovery
// state machine documented in DESIGN.md:
//
//	Healthy -> Suspected -> Dead -> Restarting -> ReAttached -> Healthy
//
// Suspected is entered on the first unresponsive report; Dead when the
// failure threshold is reached; Restarting while the replacement process
// is launched; ReAttached once the shm region and sequence journal are
// re-bound, until the redelivered call completes. A call that gives the
// daemon up leaves it Dead, and Dead with no restart under way is terminal.
type DaemonState int

const (
	StateHealthy DaemonState = iota
	StateSuspected
	StateDead
	StateRestarting
	StateReAttached
)

var stateNames = [...]string{"Healthy", "Suspected", "Dead", "Restarting", "ReAttached"}

func (s DaemonState) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("DaemonState(%d)", int(s))
	}
	return stateNames[s]
}

const (
	// failThreshold is the number of consecutive unresponsive reports
	// before the daemon is declared dead and restarted: the first report
	// only raises suspicion and grants a fresh retry round.
	failThreshold = 2
	// maxRounds is the number of recovery rounds one call is granted: the
	// call's next unresponsive report gives the daemon up for good. A
	// daemon that crashes on every command therefore costs at most
	// maxRounds restarts.
	maxRounds = 2
	// restartCost is the virtual time one restart takes — fork/exec of
	// lakeD, CUDA context re-acquisition, lakeShm re-attach.
	restartCost = 250 * time.Microsecond
)

// Supervisor watches lakeD and brings it back: it is the remoting
// RecoveryHook invoked when a client call exhausts a retry round, and its
// only input is those calls. Recovery restarts the daemon process and
// re-attaches its persistent state (CUDA contexts survive in the driver;
// lakeShm and the sequence journal are re-bound), after which in-flight
// commands are redelivered and deduplicated by the journal. A crash
// between calls is seen by the next call.
type Supervisor struct {
	clock  *vtime.Clock
	daemon *remoting.Daemon
	// relaunch brings the daemon process back; it is daemon.Restart, the
	// step a restart takes without s.mu held.
	relaunch func()

	mu    sync.Mutex
	state DaemonState
	// failures counts unresponsive reports since the last restart or the
	// last call that completed after a recovery round.
	failures int

	// restarts and transitionsTotal are what the registry exports.
	// stateGauge is nil outside a runtime (a bare NewSupervisor).
	restarts, transitionsTotal telemetry.Counter
	stateGauge                 *telemetry.Gauge

	// rec receives one EvTransition (a0 = from, a1 = to) per state change;
	// nil-safe. The recorder is the supervisor's audit log: entering Dead
	// or Restarting triggers an automatic dump, the post-mortem artifact
	// of the recovery.
	rec *flightrec.Recorder
}

// Instrument declares the supervisor's series on reg. Must be called during
// runtime construction, before supervision traffic.
func (s *Supervisor) Instrument(reg *telemetry.Registry, name telemetry.Namer) {
	reg.AttachCounter(name("lake_supervisor_transitions_total"), "Supervisor state transitions recorded.", &s.transitionsTotal)
	reg.AttachCounter(name("lake_supervisor_restarts_total"), "lakeD relaunches driven by the supervisor.", &s.restarts)
	s.stateGauge = reg.Gauge(name("lake_supervisor_state"), "Current lakeD state (0=Healthy 1=Suspected 2=Dead 3=Restarting 4=ReAttached).")
	s.stateGauge.Set(int64(StateHealthy))
}

// SetFlightRecorder attaches the flight recorder. Must be called during
// runtime construction, before supervision traffic.
func (s *Supervisor) SetFlightRecorder(rec *flightrec.Recorder) {
	s.rec = rec
}

// NewSupervisor creates a supervisor for the runtime's daemon.
func NewSupervisor(clock *vtime.Clock, daemon *remoting.Daemon) *Supervisor {
	return &Supervisor{clock: clock, daemon: daemon, relaunch: daemon.Restart}
}

// State returns the supervisor's current view of the daemon.
func (s *Supervisor) State() DaemonState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

func (s *Supervisor) setStateLocked(to DaemonState) {
	if s.state == to {
		return
	}
	from := s.state
	s.transitionsTotal.Inc()
	s.stateGauge.Set(int64(to))
	s.state = to
	s.rec.Emit(flightrec.DomainSupervisor, flightrec.EvTransition,
		0, 0, 0, uint64(from), uint64(to), 0)
	if to == StateDead || to == StateRestarting {
		s.rec.TriggerDump("supervisor-" + to.String())
	}
}

// DaemonUnresponsive implements remoting.RecoveryHook. It is invoked with
// lakeLib's exchange lock held, after one call has exhausted a full retry
// round, the call's round-th recovery round. A Dead daemon stays Dead, and
// the report after maxRounds granted rounds gives the daemon up: both
// return false and leave the state Dead. Otherwise the first report raises
// Suspected and grants another round; at failThreshold, or once the
// process is visibly crashed, the daemon is declared Dead and restarted,
// and a restart that Abandon overtook gives the daemon up too. Returning
// true tells the client to redeliver — exactly-once is preserved by the
// daemon-side journal.
func (s *Supervisor) DaemonUnresponsive(round int) bool {
	s.mu.Lock()
	if s.state == StateDead || round >= maxRounds {
		s.setStateLocked(StateDead)
		s.mu.Unlock()
		return false
	}
	s.failures++
	if s.state == StateHealthy || s.state == StateReAttached {
		s.setStateLocked(StateSuspected)
	}
	if s.failures < failThreshold && !s.daemon.Crashed() {
		// Not yet conclusive (and the process is visibly alive — likely
		// channel loss, not a crash): grant another retry round.
		s.mu.Unlock()
		return true
	}
	return s.restartLocked()
}

// DaemonRecovered implements remoting.RecoveryHook. It is invoked with
// lakeLib's exchange lock held, when a call completes after at least one
// recovery round: the daemon answered, which confirms liveness. The
// failure count resets and Suspected or ReAttached returns to Healthy.
func (s *Supervisor) DaemonRecovered() {
	s.mu.Lock()
	s.failures = 0
	if s.state == StateSuspected || s.state == StateReAttached {
		s.setStateLocked(StateHealthy)
	}
	s.mu.Unlock()
}

// restartLocked declares the daemon Dead and relaunches it:
// Dead -> Restarting, one restart counted, the fork/exec + re-attach cost
// paid on the virtual clock, then the process is brought back with its
// shm-backed state (journal included) and the supervisor enters
// ReAttached, unless Abandon made it Dead meanwhile. It reports whether it
// did: false means the relaunched process belongs to an abandoned shard,
// so the call must not redeliver to it. It is called with s.mu held and
// returns with it released.
func (s *Supervisor) restartLocked() bool {
	s.setStateLocked(StateDead)
	s.setStateLocked(StateRestarting)
	s.restarts.Inc()
	s.mu.Unlock()

	s.clock.Advance(restartCost)
	s.relaunch()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.failures = 0
	if s.state != StateRestarting {
		return false
	}
	s.setStateLocked(StateReAttached)
	return true
}

// Abandon declares the daemon permanently Dead. The fleet invokes it after
// migrating a killed shard's journal and clients away: relaunching the
// process would resurrect a shard the router no longer routes to,
// splitting the exactly-once journal in two.
func (s *Supervisor) Abandon() {
	s.mu.Lock()
	s.setStateLocked(StateDead)
	s.mu.Unlock()
}
