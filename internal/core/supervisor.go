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
// Suspected is entered on the first unresponsive report or failed
// heartbeat; Dead when the failure threshold is reached; Restarting while
// the replacement process is launched; ReAttached once the shm region and
// sequence journal are re-bound, pending a confirming heartbeat.
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

// SupervisorConfig parameterizes lakeD supervision.
type SupervisorConfig struct {
	// FailThreshold is the number of consecutive unresponsive reports
	// before the daemon is declared dead and restarted (default 2: the
	// first report only raises suspicion and grants a fresh retry round).
	FailThreshold int
	// MaxRestarts bounds restarts over the supervisor's lifetime; beyond
	// it the daemon stays Dead and clients fall back to CPU (default 16).
	MaxRestarts int64
	// HeartbeatInterval rate-limits Check pings on the virtual clock
	// (default 1ms): a Check within the interval of the previous one is a
	// no-op while Healthy.
	HeartbeatInterval time.Duration
	// RestartCost is the virtual time one restart takes — fork/exec of
	// lakeD, CUDA context re-acquisition, lakeShm re-attach (default
	// 250µs).
	RestartCost time.Duration
}

func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 16
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = time.Millisecond
	}
	if c.RestartCost <= 0 {
		c.RestartCost = 250 * time.Microsecond
	}
	return c
}

// Transition is one recorded state change, timestamped on the virtual
// clock, for post-mortem attribution in chaos runs.
type Transition struct {
	From, To DaemonState
	At       time.Duration
	Cause    string
}

// Supervisor watches lakeD and brings it back: it is the remoting
// RecoveryHook invoked when a client call exhausts a retry round, and it
// runs periodic heartbeats via Check. Recovery restarts the daemon process
// and re-attaches its persistent state (CUDA contexts survive in the
// driver; lakeShm and the sequence journal are re-bound), after which
// in-flight commands are redelivered and deduplicated by the journal.
type Supervisor struct {
	clock  *vtime.Clock
	daemon *remoting.Daemon
	lib    *remoting.Lib
	cfg    SupervisorConfig

	mu          sync.Mutex
	state       DaemonState
	failures    int // consecutive unresponsive reports since last success
	lastBeat    time.Duration
	beatValid   bool
	transitions []Transition

	// restarts is spent against cfg.MaxRestarts; with transitions it is
	// what the registry exports. stateGauge is nil with telemetry disabled.
	restarts, transitionsTotal telemetry.Counter
	stateGauge                 *telemetry.Gauge

	// rec receives supervisor-domain transition events; nil-safe. Entering
	// Dead or Restarting triggers an automatic dump — the rings are the
	// post-mortem artifact of the recovery.
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

// NewSupervisor creates a supervisor for the runtime's daemon and lib.
func NewSupervisor(clock *vtime.Clock, daemon *remoting.Daemon, lib *remoting.Lib, cfg SupervisorConfig) *Supervisor {
	return &Supervisor{
		clock:  clock,
		daemon: daemon,
		lib:    lib,
		cfg:    cfg.withDefaults(),
	}
}

// State returns the supervisor's current view of the daemon.
func (s *Supervisor) State() DaemonState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Transitions returns the recorded state-change audit log.
func (s *Supervisor) Transitions() []Transition {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Transition, len(s.transitions))
	copy(out, s.transitions)
	return out
}

func (s *Supervisor) setStateLocked(to DaemonState, cause string) {
	if s.state == to {
		return
	}
	from := s.state
	s.transitions = append(s.transitions, Transition{
		From: from, To: to, At: s.clock.Now(), Cause: cause,
	})
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
// lakeLib's call lock held, after one call has exhausted a full retry
// round. The first report raises Suspected and grants another round; at
// FailThreshold the daemon is declared Dead and restarted. Returning true
// tells the client to redeliver — exactly-once is preserved by the
// daemon-side journal.
func (s *Supervisor) DaemonUnresponsive(api remoting.APIID, seq uint64, err error) bool {
	s.mu.Lock()
	s.failures++
	cause := fmt.Sprintf("%s seq=%d unresponsive: %v", api, seq, err)
	if s.state == StateHealthy || s.state == StateReAttached {
		s.setStateLocked(StateSuspected, cause)
	}
	if s.failures < s.cfg.FailThreshold && !s.daemon.Crashed() {
		// Not yet conclusive (and the process is visibly alive — likely
		// channel loss, not a crash): grant another retry round.
		s.mu.Unlock()
		return true
	}
	s.setStateLocked(StateDead, cause)
	if s.restarts.Value() >= s.cfg.MaxRestarts {
		s.mu.Unlock()
		return false
	}
	s.setStateLocked(StateRestarting, "relaunching lakeD")
	s.restarts.Inc()
	s.mu.Unlock()

	// Pay the fork/exec + re-attach cost, then bring the process back with
	// its shm-backed state (journal included).
	s.clock.Advance(s.cfg.RestartCost)
	s.daemon.Restart()

	s.mu.Lock()
	s.failures = 0
	s.setStateLocked(StateReAttached, fmt.Sprintf("gen=%d shm+journal re-attached", s.daemon.Generation()))
	s.mu.Unlock()
	s.lib.MarkRecovered()
	return true
}

// Abandon declares the daemon permanently Dead and exhausts the restart
// budget. The fleet invokes it after migrating a killed shard's journal and
// clients away: relaunching the process would resurrect a shard the router
// no longer routes to, splitting the exactly-once journal in two.
func (s *Supervisor) Abandon(cause string) {
	s.mu.Lock()
	s.cfg.MaxRestarts = 0
	s.setStateLocked(StateDead, cause)
	s.mu.Unlock()
}

// Check runs one heartbeat round and returns the resulting state. While
// Healthy, checks within HeartbeatInterval of the previous one are no-ops.
// A successful ping confirms liveness (ReAttached/Suspected -> Healthy); a
// failed one raises suspicion, and a visibly crashed daemon is restarted
// out-of-band — the path that recovers crashes happening between client
// calls.
func (s *Supervisor) Check() DaemonState {
	now := s.clock.Now()
	s.mu.Lock()
	if s.state == StateHealthy && s.beatValid && now-s.lastBeat < s.cfg.HeartbeatInterval {
		defer s.mu.Unlock()
		return s.state
	}
	s.lastBeat = now
	s.beatValid = true
	s.mu.Unlock()

	// The ping itself runs the resilient call path; if this supervisor is
	// armed as its recovery hook, a crashed daemon may be restarted from
	// inside the ping.
	gen, _, ok := s.lib.Ping()
	if ok {
		s.mu.Lock()
		s.failures = 0
		s.setStateLocked(StateHealthy, fmt.Sprintf("heartbeat ok gen=%d", gen))
		st := s.state
		s.mu.Unlock()
		s.lib.MarkRecovered()
		return st
	}

	s.mu.Lock()
	s.failures++
	if s.state == StateHealthy {
		s.setStateLocked(StateSuspected, "heartbeat missed")
	}
	crashed := s.daemon.Crashed()
	canRestart := s.restarts.Value() < s.cfg.MaxRestarts
	if !crashed || !canRestart {
		if crashed {
			s.setStateLocked(StateDead, "restart budget exhausted")
		}
		defer s.mu.Unlock()
		return s.state
	}
	s.setStateLocked(StateDead, "heartbeat missed and process down")
	s.setStateLocked(StateRestarting, "relaunching lakeD")
	s.restarts.Inc()
	s.mu.Unlock()

	s.clock.Advance(s.cfg.RestartCost)
	s.daemon.Restart()

	s.mu.Lock()
	s.failures = 0
	s.setStateLocked(StateReAttached, fmt.Sprintf("gen=%d shm+journal re-attached", s.daemon.Generation()))
	s.mu.Unlock()

	if _, _, ok := s.lib.Ping(); ok {
		s.mu.Lock()
		s.setStateLocked(StateHealthy, "post-restart heartbeat ok")
		st := s.state
		s.mu.Unlock()
		s.lib.MarkRecovered()
		return st
	}
	return s.State()
}
