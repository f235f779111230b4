package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"lakego/internal/cuda"
	"lakego/internal/faults"
	"lakego/internal/flightrec"
	"lakego/internal/remoting"
)

func newFaultyRuntime(t *testing.T, mix faults.Mix) *Runtime {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Faults = &mix
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func TestSupervisorRecoversInjectedCrash(t *testing.T) {
	rt := newFaultyRuntime(t, faults.Mix{Seed: 1})
	sup := rt.Supervisor()
	if sup == nil {
		t.Fatal("faulty runtime has no supervisor")
	}
	if st := sup.State(); st != StateHealthy {
		t.Fatalf("initial state: %s", st)
	}

	rt.Daemon().InjectCrash(false)
	// The crash fires while this call is being served; the supervisor
	// must bring the daemon back and the call must still succeed.
	ptr, r := rt.Lib().CuMemAlloc(256)
	if r != cuda.Success {
		t.Fatalf("alloc across crash: %s", r)
	}
	if r := rt.Lib().CuMemFree(ptr); r != cuda.Success {
		t.Fatalf("free after recovery: %s", r)
	}
	if got := rt.Daemon().Restarts(); got != 1 {
		t.Fatalf("Restarts = %d, want 1", got)
	}
	if !rt.Lib().Healthy() {
		t.Fatal("lib unhealthy after successful recovery")
	}
}

func TestSupervisorStateMachineWalk(t *testing.T) {
	rt := newFaultyRuntime(t, faults.Mix{Seed: 2})
	sup := rt.Supervisor()
	rt.Daemon().InjectCrash(false)
	if _, r := rt.Lib().CuMemAlloc(64); r != cuda.Success {
		t.Fatalf("alloc across crash: %s", r)
	}
	// The walk: Healthy -> Suspected -> Dead -> Restarting -> ReAttached,
	// and the redelivered call's completion closes the loop.
	if st := sup.State(); st != StateHealthy {
		t.Fatalf("after the recovered call: %s", st)
	}
	// The flight recorder is the audit log: one EvTransition (a0 = from,
	// a1 = to) per state change.
	want := []DaemonState{StateHealthy, StateSuspected, StateDead, StateRestarting, StateReAttached, StateHealthy}
	var trs []flightrec.Event
	for _, ev := range rt.FlightRecorder().Snapshot("walk").Domains[flightrec.DomainSupervisor].Events {
		if ev.Kind == flightrec.EvTransition {
			trs = append(trs, ev)
		}
	}
	if len(trs) != len(want)-1 {
		t.Fatalf("recorded %d transitions %v, want %d", len(trs), trs, len(want)-1)
	}
	for i, ev := range trs {
		if from, to := DaemonState(ev.Arg0), DaemonState(ev.Arg1); from != want[i] || to != want[i+1] {
			t.Fatalf("transition %d is %s -> %s, want %s -> %s", i, from, to, want[i], want[i+1])
		}
	}
}

func TestSupervisorCheckRecoversIdleCrash(t *testing.T) {
	// A crash between client calls is seen by the next call, which
	// recovers it in-call.
	rt := newFaultyRuntime(t, faults.Mix{Seed: 3})
	sup := rt.Supervisor()
	rt.Daemon().InjectCrash(false)
	// Kill the daemon by serving one doomed command out-of-band.
	frame, err := remoting.AppendCommand(nil, &remoting.Command{API: remoting.APICuDeviceGetCount, Seq: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	// Bypass lakeLib so the crash is not recovered in-call.
	if err := rt.transport.SendToUser(frame); err != nil {
		t.Fatal(err)
	}
	rt.Daemon().Pump()
	if !rt.Daemon().Crashed() {
		t.Fatal("daemon not crashed")
	}
	if _, r := rt.Lib().CuDeviceGetCount(); r != cuda.Success {
		t.Fatalf("next call did not recover the idle crash: %s", r)
	}
	if st := sup.State(); st != StateHealthy {
		t.Fatalf("state after the recovering call: %s", st)
	}
	if got := rt.Daemon().Restarts(); got != 1 {
		t.Fatalf("Restarts = %d, want 1", got)
	}
	if !rt.Lib().Healthy() {
		t.Fatal("lib unhealthy after the recovering call")
	}
}

// A daemon that crashes on every command costs a call at most two
// restarts: the call's third unresponsive round gives it up, the supervisor
// records Dead, and the give-up is terminal — a clean channel and a live
// process do not bring the lib back. A crash after execution journals the
// response, so its redelivery completes the call; the calls run until one
// draws only crashes before execution.
func TestSupervisorMaxRestartsExhaustion(t *testing.T) {
	rt := newFaultyRuntime(t, faults.Mix{Seed: 5})
	lib, daemon, plane := rt.Lib(), rt.Daemon(), rt.FaultPlane()

	plane.SetMix(faults.Mix{Crash: 1})
	for i := 0; ; i++ {
		if i == 100 {
			t.Fatal("100 calls against a daemon crashing on every command, none gave it up")
		}
		before := daemon.Restarts()
		_, r := lib.CuMemAlloc(64)
		if r == cuda.Success {
			continue
		}
		if r != cuda.ErrNotReady {
			t.Fatalf("call %d = %s, want CUDA_ERROR_SYSTEM_NOT_READY", i, r)
		}
		if got := daemon.Restarts() - before; got != 2 {
			t.Fatalf("the call that gave up restarted the daemon %d times, want 2", got)
		}
		break
	}
	if rt.Supervisor().State() != StateDead {
		t.Fatalf("supervisor state %s, want Dead", rt.Supervisor().State())
	}
	if lib.Healthy() {
		t.Fatal("lib healthy after the give-up")
	}
	plane.SetMix(faults.Mix{})
	restarts := daemon.Restarts()
	if _, r := lib.CuMemAlloc(64); r != cuda.ErrNotReady {
		t.Fatalf("call after the give-up = %s, want CUDA_ERROR_SYSTEM_NOT_READY", r)
	}
	if got := daemon.Restarts(); got != restarts {
		t.Fatalf("Restarts after the give-up = %d, want %d", got, restarts)
	}
}

// Abandon landing while a call's restart is under way — the fleet's Kill
// racing in-call recovery — wins: the call gives up instead of redelivering
// to the relaunched process of an abandoned shard. The relaunch step runs
// Kill's two steps first, so Abandon lands inside the window restartLocked
// runs unlocked, and the relaunch then clears Kill's crash.
func TestSupervisorAbandonInsideRestartWindow(t *testing.T) {
	rt := newFaultyRuntime(t, faults.Mix{Seed: 1})
	sup, daemon := rt.Supervisor(), rt.Daemon()
	relaunch := sup.relaunch
	sup.relaunch = func() {
		sup.Abandon()
		daemon.InjectCrash(false)
		relaunch()
	}
	executed := daemon.Executed()
	daemon.InjectCrash(false)
	if _, r := rt.Lib().CuDeviceGetCount(); r != cuda.ErrNotReady {
		t.Fatalf("call overtaken by Abandon = %s, want %s", r, cuda.ErrNotReady)
	}
	if got := daemon.Executed(); got != executed {
		t.Fatalf("the abandoned daemon executed %d commands, want 0: the call redelivered", got-executed)
	}
	if got := daemon.Restarts(); got != 1 {
		t.Fatalf("Restarts() = %d, want 1", got)
	}
	if rt.Lib().Healthy() {
		t.Fatal("lib healthy after the call gave up")
	}
	if st := sup.State(); st != StateDead {
		t.Fatalf("state %s after Abandon, want Dead", st)
	}
	var walk []DaemonState
	for _, ev := range rt.FlightRecorder().Snapshot("abandon").Domains[flightrec.DomainSupervisor].Events {
		if ev.Kind == flightrec.EvTransition {
			walk = append(walk, DaemonState(ev.Arg1))
		}
	}
	want := []DaemonState{StateSuspected, StateDead, StateRestarting, StateDead}
	if fmt.Sprint(walk) != fmt.Sprint(want) {
		t.Fatalf("transitions %v, want %v", walk, want)
	}
}

func TestSupervisorRaceWithConcurrentClients(t *testing.T) {
	// Concurrent remoted calls, injected crashes, and a reader of the
	// supervisor state and lib latch: run under -race this exercises every
	// supervisor/lib/daemon lock.
	rt := newFaultyRuntime(t, faults.Mix{Seed: 6})
	lib, daemon, sup := rt.Lib(), rt.Daemon(), rt.Supervisor()

	const workers, per = 4, 50
	var wg sync.WaitGroup
	errs := make(chan string, workers*per+1)
	stop, read := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(read)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if sup.State() == StateDead || !lib.Healthy() {
				errs <- "reader saw the daemon given up"
				return
			}
			runtime.Gosched()
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if w == 0 && i%10 == 3 {
					daemon.InjectCrash(i%20 == 3)
				}
				ptr, r := lib.CuMemAlloc(64)
				if r != cuda.Success {
					errs <- "alloc: " + r.String()
					return
				}
				if r := lib.CuMemFree(ptr); r != cuda.Success {
					errs <- "free: " + r.String()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-read
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if t.Failed() {
		t.Logf("restarts=%d state=%s", daemon.Restarts(), sup.State())
	}
}

// TestSupervisorCallRecoveryConfirmsLiveness: a call that gets through
// after a granted retry round confirms the daemon alive. Two separate episodes of channel loss, each exhausting exactly one
// retry round of one call before that call completes, leave the daemon
// Healthy with no restart; the second round is not counted as a second
// consecutive failure.
func TestSupervisorCallRecoveryConfirmsLiveness(t *testing.T) {
	rt := newFaultyRuntime(t, faults.Mix{Seed: 3})
	sup, lib, plane := rt.Supervisor(), rt.Lib(), rt.FaultPlane()
	for episode := 1; episode <= 2; episode++ {
		before := lib.ResilienceStats().Recoveries
		plane.SetMix(faults.Mix{Drop: 0.5})
		for i := 0; lib.ResilienceStats().Recoveries == before; i++ {
			if i == 100 {
				t.Fatalf("episode %d: 100 calls under 50%% drop exhausted no retry round", episode)
			}
			if _, r := lib.CuDeviceGetCount(); r != cuda.Success {
				t.Fatalf("episode %d: call %d failed: %s", episode, i, r)
			}
		}
		plane.SetMix(faults.Mix{})
		if got := lib.ResilienceStats().Recoveries - before; got != 1 {
			t.Fatalf("episode %d: %d recovery rounds, want 1", episode, got)
		}
		if got, st := rt.Daemon().Restarts(), sup.State(); got != 0 || st != StateHealthy {
			t.Fatalf("episode %d: restarts %d, state %s; want 0 and Healthy", episode, got, st)
		}
	}
}
