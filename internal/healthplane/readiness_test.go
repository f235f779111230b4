package healthplane

import (
	"net/http/httptest"
	"testing"

	"lakego/internal/core"
	"lakego/internal/cuda"
	"lakego/internal/faults"
	"lakego/internal/flightrec"
)

// A call that gives lakeD up is the supervisor's one terminal decision, and
// readiness reads it: the supervisor is Dead with that transition last in
// the audit log, the plane is not ready, /readyz answers 503, and a healed
// channel does not bring the lib back.
func TestGiveUpMakesShardUnready(t *testing.T) {
	t.Run("runtime", func(t *testing.T) {
		cfg := core.DefaultConfig()
		cfg.Faults = &faults.Mix{Seed: 1}
		rt, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		p := Attach(rt)
		if ok, shards := p.Ready(); !ok {
			t.Fatalf("not ready before any fault: %+v", shards)
		}

		rt.FaultPlane().SetMix(faults.Mix{Drop: 1})
		if _, r := rt.Lib().CuDeviceGetCount(); r != cuda.ErrNotReady {
			t.Fatalf("call under total loss = %s, want %s", r, cuda.ErrNotReady)
		}
		rt.FaultPlane().SetMix(faults.Mix{})

		if st := rt.Supervisor().State(); st != core.StateDead {
			t.Fatalf("supervisor %s after the give-up, want Dead", st)
		}
		var last flightrec.Event
		for _, ev := range rt.FlightRecorder().Snapshot("give-up").Domains[flightrec.DomainSupervisor].Events {
			if ev.Kind == flightrec.EvTransition {
				last = ev
			}
		}
		if last.Kind != flightrec.EvTransition || core.DaemonState(last.Arg1) != core.StateDead {
			t.Fatalf("last supervisor transition %+v, want one to Dead", last)
		}
		if ok, shards := p.Ready(); ok {
			t.Fatalf("ready after the give-up: %+v", shards)
		}
		srv := httptest.NewServer(p.Handler())
		defer srv.Close()
		if code, body := get(t, srv, "/readyz"); code != 503 {
			t.Fatalf("/readyz after the give-up = %d %s, want 503", code, body)
		}
		if _, r := rt.Lib().CuDeviceGetCount(); r != cuda.ErrNotReady {
			t.Fatalf("call on a healed channel after the give-up = %s, want %s", r, cuda.ErrNotReady)
		}
	})
}
