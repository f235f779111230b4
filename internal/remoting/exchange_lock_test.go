package remoting

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"lakego/internal/boundary"
	"lakego/internal/cuda"
	"lakego/internal/faults"
)

// lockCheckChannel is a ring transport that counts exchange-lock
// acquisitions and every ring operation made while that lock is not held.
type lockCheckChannel struct {
	*boundary.RingTransport
	locks, unguarded atomic.Int64
	held             atomic.Bool
}

func (c *lockCheckChannel) Lock() {
	c.RingTransport.Lock()
	c.locks.Add(1)
	c.held.Store(true)
}

func (c *lockCheckChannel) Unlock() {
	c.held.Store(false)
	c.RingTransport.Unlock()
}

func (c *lockCheckChannel) guard() {
	if !c.held.Load() {
		c.unguarded.Add(1)
	}
}

func (c *lockCheckChannel) SendToUser(msg []byte) error {
	c.guard()
	return c.RingTransport.SendToUser(msg)
}

func (c *lockCheckChannel) RecvInUser() ([]byte, bool) {
	c.guard()
	return c.RingTransport.RecvInUser()
}

func (c *lockCheckChannel) SendToKernel(msg []byte) error {
	c.guard()
	return c.RingTransport.SendToKernel(msg)
}

func (c *lockCheckChannel) RecvInKernel() ([]byte, bool) {
	c.guard()
	return c.RingTransport.RecvInKernel()
}

// TestOneExchangeLockPerCall: a remoted call takes its pair's exchange lock
// exactly once, and every send and receive on either ring — lakeLib's and
// lakeD's pump alike — happens under it, on a clean channel and under drops,
// duplicates and daemon crashes, where the retries, the journal answers and
// the restarts all stay inside the call's one hold.
func TestOneExchangeLockPerCall(t *testing.T) {
	for _, tc := range []struct {
		name string
		mix  faults.Mix
	}{
		{"fault-free", faults.Mix{}},
		{"drop+duplicate+crash", faults.Mix{Drop: 0.1, Duplicate: 0.1, Crash: 0.05, Seed: 54}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStack(t)
			ch := &lockCheckChannel{RingTransport: s.tr}
			s.daemon = NewDaemon(s.api, s.region, ch)
			s.lib = NewLib(ch, s.daemon)
			var restarts atomic.Int64
			s.lib.EnableResilience(&churnHook{d: s.daemon, restarts: &restarts})
			plane := faults.NewPlane(tc.mix, s.clock)
			s.tr.InjectFaults(plane)
			s.daemon.InjectFaults(plane)

			stubs := 0
			check := func(what string, r cuda.Result) {
				t.Helper()
				stubs++
				if r != cuda.Success {
					t.Fatalf("%s: %s", what, r)
				}
			}
			check("cuInit", s.lib.CuInit())
			for i := 0; i < 100; i++ {
				ptr, r := s.lib.CuMemAlloc(64)
				check("cuMemAlloc", r)
				check("cuMemcpyHtoD", s.lib.CuMemcpyHtoD(ptr, make([]byte, 64)))
				_, _, r = s.lib.NvmlGetUtilization()
				check("nvmlGetUtilization", r)
				check("cuMemFree", s.lib.CuMemFree(ptr))
			}

			if got := ch.locks.Load(); got != int64(stubs) {
				t.Errorf("%d exchange-lock acquisitions for %d remoted calls, want one each", got, stubs)
			}
			if got := ch.unguarded.Load(); got != 0 {
				t.Errorf("%d ring operations outside the exchange lock", got)
			}
			rs := s.lib.ResilienceStats()
			if tc.mix != (faults.Mix{}) {
				fs := plane.Stats()
				if fs.Dropped == 0 || fs.Duplicated == 0 || restarts.Load() == 0 || rs.Retries == 0 {
					t.Fatalf("mix reached too little: %+v, %d restarts, %d retries", fs, restarts.Load(), rs.Retries)
				}
			} else if rs.Retries != 0 || restarts.Load() != 0 {
				t.Fatalf("clean channel retried %d times, restarted %d", rs.Retries, restarts.Load())
			}
			t.Logf("%d calls, %d retries, %d restarts", stubs, rs.Retries, restarts.Load())
		})
	}
}

// Every reader of state the exchange lock guards races remoted calls on
// one Lib: doorbell counts, the counters behind Stats, and a final Close
// that lands between calls. Exchanges never overlap (every frame lands on
// an empty ring), and a call after the Close fails cleanly.
func TestRingStateReadersRaceCalls(t *testing.T) {
	s := newStack(t)
	if r := s.lib.CuInit(); r != cuda.Success {
		t.Fatal(r)
	}
	// Callers make at least per alloc/free pairs each and keep going until
	// the reader has finished its rounds.
	const callers, per, rounds = 4, 50, 40
	var closed, stop atomic.Bool
	var completed atomic.Int64
	errs := make(chan error, callers+1)
	caller := func(wg *sync.WaitGroup) {
		defer wg.Done()
		for i := 0; i < per || !stop.Load(); i++ {
			ptr, r := s.lib.CuMemAlloc(64)
			if r == cuda.Success {
				completed.Add(1)
				r = s.lib.CuMemFree(ptr)
			}
			if r != cuda.Success {
				if !closed.Load() {
					errs <- fmt.Errorf("call %d before Close: %s", i, r)
				}
				return
			}
			completed.Add(1)
		}
	}
	reader := func(wg *sync.WaitGroup) {
		defer wg.Done()
		defer stop.Store(true)
		for k := 0; k < rounds; k++ {
			s.tr.DoorbellStats()
			s.tr.Stats()
			s.lib.Stats()
			s.lib.ResilienceStats()
			s.daemon.Handled()
			runtime.Gosched()
		}
	}

	var wg sync.WaitGroup
	wg.Add(1 + callers)
	go reader(&wg)
	for w := 0; w < callers; w++ {
		go caller(&wg)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if got, want := s.daemon.Executed(), 1+completed.Load(); got != want {
		t.Fatalf("daemon executed %d commands, want %d", got, want)
	}
	sent, received := s.tr.Stats()
	if rings, _, _ := s.tr.DoorbellStats(); rings != uint64(sent+received) {
		t.Fatalf("rings %d != frames %d: two exchanges overlapped", rings, sent+received)
	}

	// The final Close races a second wave of callers, which call until the
	// closed channel fails them.
	stop.Store(false)
	wg.Add(callers)
	for w := 0; w < callers; w++ {
		go caller(&wg)
	}
	closed.Store(true)
	s.tr.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if r := s.lib.CuInit(); r == cuda.Success {
		t.Fatal("a call after Close succeeded")
	}
	if rings, _, _ := s.tr.DoorbellStats(); rings == 0 {
		t.Fatal("Close lost the doorbell count")
	}
	t.Logf("%d imports and exports raced %d calls", rounds, completed.Load())
}
