// Soak test: the full runtime under concurrent mixed load — remoted CUDA
// calls, feature capture from many goroutines, policy decisions, high-level
// API invocations — must stay consistent and leak nothing.
package lake_test

import (
	"sync"
	"sync/atomic"
	"testing"

	lake "lakego"
	"lakego/internal/core"
	"lakego/internal/cuda"
	"lakego/internal/shm"
)

func TestSoakConcurrentMixedLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	rt, err := lake.New(lake.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.RegisterKernel(lake.VecAddKernel())
	rt.Daemon().RegisterHighLevel("sum", func(api *cuda.API, region *shm.Region, args []uint64, blob []byte) ([]uint64, []byte, cuda.Result) {
		var s uint64
		for _, a := range args {
			s += a
		}
		return []uint64{s}, nil, cuda.Success
	})

	reg, err := lake.NewFeatureStore().CreateRegistry("soak", "sys", lake.FeatureSchema{
		{Key: "pend", Size: 8, Entries: 1},
		{Key: "lat", Size: 8, Entries: 4},
	}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	pol := rt.NewAdaptivePolicy(lake.DefaultAdaptiveConfig())

	const workers = 8
	const iters = 300
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lib := rt.Lib()
			ctx, r := lib.CuCtxCreate("soak")
			if r != lake.Success {
				errs <- "ctx: " + r.String()
				return
			}
			mod, _ := lib.CuModuleLoad("m")
			fn, r := lib.CuModuleGetFunction(mod, "vecadd")
			if r != lake.Success {
				errs <- "fn: " + r.String()
				return
			}
			buf, err := rt.Region().Alloc(4 * 16)
			if err != nil {
				errs <- err.Error()
				return
			}
			dp, _ := lib.CuMemAlloc(4 * 16)
			for i := 0; i < iters; i++ {
				switch i % 4 {
				case 0: // remoted compute round
					if r := lib.CuMemcpyHtoDShm(dp, buf, 4*16); r != lake.Success {
						errs <- "htod: " + r.String()
						return
					}
					if r := lib.CuLaunchKernel(ctx, fn, []uint64{uint64(dp), uint64(dp), uint64(dp), 16}); r != lake.Success {
						errs <- "launch: " + r.String()
						return
					}
				case 1: // feature capture
					reg.CaptureFeatureIncr("pend", 1)
					reg.BeginCapture(rt.Clock().Now())
					reg.CommitCapture(rt.Clock().Now())
					reg.CaptureFeatureIncr("pend", -1)
				case 2: // policy decision
					pol.Decide(i % 64)
				case 3: // high-level API
					vals, _, r := lib.CallHighLevel("sum", []uint64{uint64(w), uint64(i)}, nil)
					if r != lake.Success || vals[0] != uint64(w+i) {
						errs <- "sum wrong"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	st := rt.Stats()
	wantLaunches := int64(workers * iters / 4)
	if st.KernelLaunches != wantLaunches {
		t.Fatalf("launches = %d, want %d", st.KernelLaunches, wantLaunches)
	}
	if st.RemotedCalls != st.DaemonHandled {
		t.Fatalf("calls %d != handled %d", st.RemotedCalls, st.DaemonHandled)
	}
	if got := reg.Commits(); got != int64(workers*iters/4) {
		t.Fatalf("commits = %d, want %d", got, workers*iters/4)
	}
}

// TestSoakUnderFaults is the fault-enabled soak: the same concurrent mixed
// load as above, but with 1% of channel messages dropped and the daemon
// periodically crashed and supervisor-restarted underneath it. The load
// must complete with nothing lost and nothing double-executed — the
// kernel-launch and feature-commit counters are exact, so a lost or
// re-executed command shows up as an off-by-N.
func TestSoakUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	cfg := lake.DefaultConfig()
	cfg.Faults = &lake.FaultMix{Drop: 0.01, Seed: 31}
	rt, err := lake.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.RegisterKernel(lake.VecAddKernel())
	rt.Daemon().RegisterHighLevel("sum", func(api *cuda.API, region *shm.Region, args []uint64, blob []byte) ([]uint64, []byte, cuda.Result) {
		var s uint64
		for _, a := range args {
			s += a
		}
		return []uint64{s}, nil, cuda.Success
	})

	reg, err := lake.NewFeatureStore().CreateRegistry("soak-faulty", "sys", lake.FeatureSchema{
		{Key: "pend", Size: 8, Entries: 1},
	}, 4096)
	if err != nil {
		t.Fatal(err)
	}

	// One crash is armed before any worker runs, so the first calls
	// already recover from one.
	rt.Daemon().InjectCrash(true)

	const workers = 8
	const iters = 300
	// The crash driver ticks once per crashPace completed worker
	// iterations: the worker completing one hands the tick over and waits
	// until the driver has acted on it, so every run has the same number of
	// ticks, workers*iters/crashPace, however the scheduler treats the
	// driver's goroutine, and a tick's crash is armed before that worker's
	// next call. Waiting for the hand-over alone is not enough: the driver
	// may then act on a tick only as the workers reach the next one, and
	// arm again before lakeD has served a command, so the second arm
	// overwrites the first.
	const crashPace = 8
	var completed atomic.Int64
	tick, acted := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lib := rt.Lib()
			ctx, r := lib.CuCtxCreate("soak-faulty")
			if r != lake.Success {
				errs <- "ctx: " + r.String()
				return
			}
			mod, _ := lib.CuModuleLoad("m")
			fn, r := lib.CuModuleGetFunction(mod, "vecadd")
			if r != lake.Success {
				errs <- "fn: " + r.String()
				return
			}
			buf, err := rt.Region().Alloc(4 * 16)
			if err != nil {
				errs <- err.Error()
				return
			}
			dp, _ := lib.CuMemAlloc(4 * 16)
			for i := 0; i < iters; i++ {
				switch i % 4 {
				case 0: // remoted compute round
					if r := lib.CuMemcpyHtoDShm(dp, buf, 4*16); r != lake.Success {
						errs <- "htod: " + r.String()
						return
					}
					if r := lib.CuLaunchKernel(ctx, fn, []uint64{uint64(dp), uint64(dp), uint64(dp), 16}); r != lake.Success {
						errs <- "launch: " + r.String()
						return
					}
				case 1: // feature capture
					reg.CaptureFeatureIncr("pend", 1)
					reg.BeginCapture(rt.Clock().Now())
					reg.CommitCapture(rt.Clock().Now())
					reg.CaptureFeatureIncr("pend", -1)
				case 2: // redundant remoted query
					if _, r := lib.CuDeviceGetCount(); r != lake.Success {
						errs <- "devcount: " + r.String()
						return
					}
				case 3: // high-level API
					vals, _, r := lib.CallHighLevel("sum", []uint64{uint64(w), uint64(i)}, nil)
					if r != lake.Success || vals[0] != uint64(w+i) {
						errs <- "sum wrong"
						return
					}
				}
				if completed.Add(1)%crashPace == 0 {
					tick <- struct{}{}
					<-acted
				}
			}
		}(w)
	}

	// Crash driver: on every tick, arm a crash (alternating placement)
	// under the workers' in-call recovery. A call gives lakeD up on its
	// third crash, so a tick is skipped when it could stack one: the daemon
	// is down or a restart is under way (a restart clears an armed crash
	// anyway), or the call being recovered has already cost two restarts
	// since the supervisor was last seen Healthy.
	var driver sync.WaitGroup
	var ticks, armed int64
	driver.Add(1)
	go func() {
		defer driver.Done()
		daemon, sup := rt.Daemon(), rt.Supervisor()
		var healthyAt int64
		for i := 0; ; i++ {
			if _, ok := <-tick; !ok {
				return
			}
			ticks++
			r := daemon.Restarts()
			st := sup.State()
			steady := !daemon.Crashed() && daemon.Restarts() == r
			if steady && st == core.StateHealthy {
				healthyAt = r
			}
			if steady && (st == core.StateHealthy || st == core.StateReAttached && r-healthyAt < 2) {
				daemon.InjectCrash(i%2 == 0)
				armed++
			}
			acted <- struct{}{}
		}
	}()

	wg.Wait()
	close(tick)
	driver.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	st := rt.Stats()
	wantLaunches := int64(workers * iters / 4)
	if st.KernelLaunches != wantLaunches {
		t.Fatalf("launches = %d, want %d (lost or re-executed launches)", st.KernelLaunches, wantLaunches)
	}
	if got := reg.Commits(); got != int64(workers*iters/4) {
		t.Fatalf("commits = %d, want %d", got, workers*iters/4)
	}
	rs := rt.Lib().ResilienceStats()
	if rs.DaemonDead != 0 {
		t.Fatalf("abandoned calls during faulty soak: %+v", rs)
	}
	if fs := rt.FaultPlane().Stats(); fs.Dropped == 0 {
		t.Fatalf("1%% drop mix never fired over %d messages", fs.Messages)
	}
	// 94 is the fewest restarts of ten -race runs on a 2-vCPU host when a
	// supervisor heartbeat took most crashes out of band; the in-call path
	// must take at least as many, with and without -race, now that the
	// tick count no longer depends on the scheduler.
	const minRestarts = 94
	if rt.Daemon().Restarts() < minRestarts {
		t.Fatalf("crash driver produced %d restarts, want >= %d (%d crashes armed in %d ticks)",
			rt.Daemon().Restarts(), minRestarts, armed, ticks)
	}
	t.Logf("faulty soak: %d retries, %d redeliveries, %d restarts, %d crashes armed in %d ticks, handled=%d executed=%d",
		rs.Retries, rt.Daemon().Redelivered(), rt.Daemon().Restarts(), armed, ticks,
		st.DaemonHandled, st.DaemonExecuted)
}
