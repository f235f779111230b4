package core

import (
	"sync"
	"testing"
	"time"

	"lakego/internal/cuda"
	"lakego/internal/faults"
	"lakego/internal/flightrec"
	"lakego/internal/remoting"
)

func newFaultyRuntime(t *testing.T, mix faults.Mix, sup SupervisorConfig) *Runtime {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Faults = &mix
	cfg.Supervision = sup
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func TestSupervisorRecoversInjectedCrash(t *testing.T) {
	rt := newFaultyRuntime(t, faults.Mix{Seed: 1}, SupervisorConfig{})
	sup := rt.Supervisor()
	if sup == nil {
		t.Fatal("faulty runtime has no supervisor")
	}
	if st := sup.Check(); st != StateHealthy {
		t.Fatalf("initial heartbeat: %s", st)
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
	rt := newFaultyRuntime(t, faults.Mix{Seed: 2}, SupervisorConfig{})
	sup := rt.Supervisor()
	rt.Daemon().InjectCrash(false)
	if _, r := rt.Lib().CuMemAlloc(64); r != cuda.Success {
		t.Fatalf("alloc across crash: %s", r)
	}
	// The walk so far: Healthy -> Suspected -> Dead -> Restarting ->
	// ReAttached. A confirming heartbeat closes the loop.
	if st := sup.Check(); st != StateHealthy {
		t.Fatalf("post-recovery heartbeat: %s", st)
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
	// A crash between client calls is only observable via heartbeat.
	rt := newFaultyRuntime(t, faults.Mix{Seed: 3}, SupervisorConfig{})
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
	rt.Daemon().PumpOne()
	if !rt.Daemon().Crashed() {
		t.Fatal("daemon not crashed")
	}
	if st := sup.Check(); st != StateHealthy {
		t.Fatalf("heartbeat did not recover idle crash: %s", st)
	}
	if rt.Daemon().Restarts() == 0 {
		t.Fatal("no restart recorded")
	}
}

func TestSupervisorHeartbeatRateLimit(t *testing.T) {
	rt := newFaultyRuntime(t, faults.Mix{Seed: 4}, SupervisorConfig{})
	sup := rt.Supervisor()
	sup.Check()
	calls0, _ := rt.Lib().Stats()
	sup.Check() // within the interval while Healthy: no ping
	calls1, _ := rt.Lib().Stats()
	if calls1 != calls0 {
		t.Fatalf("rate-limited Check still pinged (%d -> %d calls)", calls0, calls1)
	}
	rt.Clock().Advance(2 * time.Millisecond)
	sup.Check()
	calls2, _ := rt.Lib().Stats()
	if calls2 == calls1 {
		t.Fatal("Check after the interval did not ping")
	}
}

func TestSupervisorMaxRestartsExhaustion(t *testing.T) {
	rt := newFaultyRuntime(t, faults.Mix{Seed: 5}, SupervisorConfig{MaxRestarts: 1})
	lib, daemon := rt.Lib(), rt.Daemon()

	daemon.InjectCrash(false)
	if _, r := lib.CuMemAlloc(64); r != cuda.Success {
		t.Fatalf("first crash should recover (budget 1): %s", r)
	}
	daemon.InjectCrash(false)
	if _, r := lib.CuMemAlloc(64); r != cuda.ErrNotReady {
		t.Fatalf("second crash exceeded the budget; want CUDA_ERROR_SYSTEM_NOT_READY, got %s", r)
	}
	if rt.Supervisor().State() != StateDead {
		t.Fatalf("supervisor state %s, want Dead", rt.Supervisor().State())
	}
	if lib.Healthy() {
		t.Fatal("lib healthy with a dead, unrestartable daemon")
	}
}

func TestSupervisorRaceWithConcurrentClients(t *testing.T) {
	// Concurrent remoted calls, injected crashes, and heartbeat checks:
	// run under -race this exercises every supervisor/lib/daemon lock.
	rt := newFaultyRuntime(t, faults.Mix{Seed: 6}, SupervisorConfig{})
	lib, daemon, sup := rt.Lib(), rt.Daemon(), rt.Supervisor()

	const workers, per = 4, 50
	var wg sync.WaitGroup
	errs := make(chan string, workers*per)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if w == 0 && i%10 == 3 {
					daemon.InjectCrash(i%20 == 3)
				}
				if w == 1 && i%7 == 0 {
					sup.Check()
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
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if t.Failed() {
		t.Logf("restarts=%d state=%s", daemon.Restarts(), sup.State())
	}
}
