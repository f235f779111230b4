package remoting

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"lakego/internal/cuda"
	"lakego/internal/shm"
)

// The daemon must survive arbitrary garbage on its socket: corrupt frames
// produce error responses (or are dropped), never panics — a kernel-facing
// daemon cannot crash on malformed input.
func TestDaemonSurvivesGarbageFrames(t *testing.T) {
	s := newStack(t)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		frame := make([]byte, rng.Intn(256))
		rng.Read(frame)
		if err := s.tr.SendToUser(frame); err != nil {
			t.Fatal(err)
		}
		if n := s.daemon.Pump(); n != 1 {
			t.Fatalf("daemon served %d frames, want 1", n)
		}
		resp, ok := s.tr.RecvInKernel()
		if !ok {
			t.Fatal("daemon sent no response")
		}
		// Whatever came back must parse as a response frame.
		if err := DecodeResponseInto(new(Response), resp); err != nil {
			t.Fatalf("daemon response unparseable: %v", err)
		}
	}
}

// Mutated valid commands (bit flips) must also never panic the daemon.
func TestDaemonSurvivesBitFlips(t *testing.T) {
	s := newStack(t)
	base, err := AppendCommand(nil, &Command{
		API:  APICuMemcpyHtoD,
		Seq:  1,
		Args: []uint64{1, 2, 3, 4},
		Blob: []byte{1, 2, 3, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		frame := append([]byte(nil), base...)
		for flips := 0; flips < 3; flips++ {
			frame[rng.Intn(len(frame))] ^= 1 << uint(rng.Intn(8))
		}
		if err := s.tr.SendToUser(frame); err != nil {
			t.Fatal(err)
		}
		s.daemon.Pump()
		s.tr.RecvInKernel()
	}
}

// lakeLib must be safe for concurrent kernel threads: parallel remoted
// calls through one Lib must all succeed with correctly-matched responses.
func TestConcurrentRemotedCalls(t *testing.T) {
	s := newStack(t)
	s.lib.CuInit()
	const workers, per = 8, 200
	var wg sync.WaitGroup
	errs := make(chan string, workers*per)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ptr, r := s.lib.CuMemAlloc(64)
				if r != cuda.Success {
					errs <- "alloc: " + r.String()
					return
				}
				if r := s.lib.CuMemFree(ptr); r != cuda.Success {
					errs <- "free: " + r.String()
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	calls, _ := s.lib.Stats()
	if calls != 1+workers*per*2 {
		t.Fatalf("calls = %d, want %d", calls, 1+workers*per*2)
	}
}

// churnHook restarts the daemon on every exhausted retry round and never
// gives it up, so the churn keeps reaching the daemon for the whole run.
type churnHook struct {
	d        *Daemon
	restarts *atomic.Int64
}

func (h *churnHook) DaemonUnresponsive(int) bool {
	h.d.Restart()
	h.restarts.Add(1)
	return true
}

func (h *churnHook) DaemonRecovered() {}

// startChurn registers a "count" handler on s that counts its executions
// per first argument, and starts a goroutine that crashes and restarts the
// daemon and reads the daemon's and the lib's latches until the returned
// stop is called or the test ends; it returns once the goroutine runs.
// stayHealthy makes a dead lib latch an error. stop waits for the goroutine
// and returns the execution counts.
func startChurn(t *testing.T, s *stack, restarts *atomic.Int64, stayHealthy bool) (stop func() map[uint64]int) {
	var mu sync.Mutex
	execs := map[uint64]int{}
	s.daemon.RegisterHighLevel("count", func(api *cuda.API, region *shm.Region, args []uint64, blob []byte) ([]uint64, []byte, cuda.Result) {
		mu.Lock()
		execs[args[0]]++
		mu.Unlock()
		return nil, nil, cuda.Success
	})
	started, quit, churned := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(churned)
		close(started)
		for i := 0; ; i++ {
			select {
			case <-quit:
				return
			default:
			}
			switch i % 8 {
			case 0:
				s.daemon.InjectCrash(i%16 == 0)
			case 1:
				if s.daemon.Crashed() {
					s.daemon.Restart()
					restarts.Add(1)
				}
			case 2:
				if !s.lib.Healthy() && stayHealthy {
					t.Error("a hook that never gives up latched the lib dead")
				}
			case 3:
				if issued, got := restarts.Load(), s.daemon.Restarts(); got < issued {
					t.Errorf("Restarts() = %d behind the %d restarts issued", got, issued)
				}
			}
			runtime.Gosched()
		}
	}()
	<-started
	var halt sync.Once
	t.Cleanup(func() { halt.Do(func() { close(quit) }) })
	return func() map[uint64]int {
		halt.Do(func() { close(quit) })
		<-churned
		mu.Lock()
		defer mu.Unlock()
		return execs
	}
}

// The fault-only state (the daemon's crash latch, pending crash and restart
// epoch, the lib's dead latch) is atomic words read and written outside the
// exchange lock: remoted calls racing a goroutine that crashes, restarts
// and reads the latches must still execute every command at most once,
// every successful one exactly once, and count each restart once.
func TestFaultStateChurnDuringCalls(t *testing.T) {
	s := newStack(t)
	var restarts atomic.Int64
	s.lib.EnableResilience(&churnHook{d: s.daemon, restarts: &restarts})
	stop := startChurn(t, s, &restarts, true)

	const calls = 300
	ok := make([]bool, calls)
	succeeded := 0
	for i := range ok {
		_, _, r := s.lib.CallHighLevel("count", []uint64{uint64(i)}, nil)
		if ok[i] = r == cuda.Success; ok[i] {
			succeeded++
		}
	}
	execs := stop()

	for i, good := range ok {
		if n := execs[uint64(i)]; n > 1 || good && n != 1 {
			t.Errorf("call %d (success %v) executed %d times", i, good, n)
		}
	}
	if succeeded == 0 {
		t.Fatal("no call succeeded")
	}
	if got := s.daemon.Restarts(); got != restarts.Load() {
		t.Fatalf("Restarts() = %d, restarts issued = %d", got, restarts.Load())
	}
	t.Logf("%d/%d calls succeeded, %d restarts", succeeded, calls, restarts.Load())
}

// The same churn under roundHook, which restarts nothing and gives the
// daemon up on a call's third exhausted round: the dead latch is set while
// the churn goroutine keeps crashing, restarting, exporting and reading
// it. From the first ErrNotReady on, every call fails fast: no retry, and
// the daemon executes nothing more.
func TestFaultStateChurnThroughGiveUp(t *testing.T) {
	s := newStack(t)
	var restarts atomic.Int64
	s.lib.EnableResilience(roundHook{})
	stop := startChurn(t, s, &restarts, false)

	const maxCalls, after = 100000, 20
	var ok []bool
	gaveUp := -1
	var executed, retries, refused int64
	for i := 0; gaveUp < 0 && i < maxCalls || gaveUp >= 0 && i <= gaveUp+after; i++ {
		_, _, r := s.lib.CallHighLevel("count", []uint64{uint64(i)}, nil)
		ok = append(ok, r == cuda.Success)
		switch {
		case gaveUp < 0 && r == cuda.ErrNotReady:
			gaveUp = i
			executed, retries = s.daemon.Executed(), s.lib.ResilienceStats().Retries
			refused = s.lib.ResilienceStats().DaemonDead
			if s.lib.Healthy() {
				t.Fatalf("call %d gave up but the lib is still healthy", i)
			}
		case gaveUp >= 0 && r != cuda.ErrNotReady:
			t.Fatalf("call %d after the give-up at call %d returned %s, want %s", i, gaveUp, r, cuda.ErrNotReady)
		}
	}
	execs := stop()

	if gaveUp < 0 {
		t.Fatalf("no call gave up in %d calls (%d restarts)", maxCalls, restarts.Load())
	}
	for i, good := range ok {
		if n := execs[uint64(i)]; n > 1 || good && n != 1 {
			t.Errorf("call %d (success %v) executed %d times", i, good, n)
		}
	}
	rs := s.lib.ResilienceStats()
	if got := s.daemon.Executed(); got != executed {
		t.Errorf("Executed() = %d after the give-up, %d at it", got, executed)
	}
	if rs.Retries != retries {
		t.Errorf("Retries = %d after the give-up, %d at it", rs.Retries, retries)
	}
	if got := rs.DaemonDead - refused; got != after {
		t.Errorf("%d calls refused after the give-up, want %d", got, after)
	}
	if got := s.daemon.Restarts(); got != restarts.Load() {
		t.Fatalf("Restarts() = %d, restarts issued = %d", got, restarts.Load())
	}
	t.Logf("gave up at call %d, %d restarts", gaveUp, restarts.Load())
}

// A panicking high-level handler must fail its request with an error
// response, not kill the daemon (§6.1's trusted-daemon posture).
func TestDaemonSurvivesPanickingHandler(t *testing.T) {
	s := newStack(t)
	s.daemon.RegisterHighLevel("boom", func(api *cuda.API, region *shm.Region, args []uint64, blob []byte) ([]uint64, []byte, cuda.Result) {
		panic("handler bug")
	})
	if _, _, r := s.lib.CallHighLevel("boom", nil, nil); r != cuda.ErrUnknown {
		t.Fatalf("panicking handler returned %v, want ErrUnknown", r)
	}
	// The daemon keeps serving afterwards.
	if r := s.lib.CuInit(); r != cuda.Success {
		t.Fatalf("daemon dead after handler panic: %v", r)
	}
}
