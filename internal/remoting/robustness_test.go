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
		if !s.daemon.PumpOne() {
			t.Fatal("daemon did not consume frame")
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
		s.daemon.PumpOne()
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

// churnHook restarts the daemon on every exhausted retry round, except
// that every fourth round it gives up, latching the lib dead until the
// churn goroutine calls MarkRecovered.
type churnHook struct {
	d        *Daemon
	rounds   int
	restarts *atomic.Int64
}

func (h *churnHook) DaemonUnresponsive() bool {
	h.rounds++
	if h.rounds%4 == 0 {
		return false
	}
	h.d.Restart()
	h.restarts.Add(1)
	return true
}

// The fault-only state (the daemon's crash latch, pending crash and restart
// epoch, the lib's dead latch) is atomic words read and written outside the
// exchange lock: remoted calls racing a goroutine that crashes, restarts,
// recovers and exports the journal must still execute every command at most
// once, every successful one exactly once, and count each restart once.
func TestFaultStateChurnDuringCalls(t *testing.T) {
	s := newStack(t)
	var restarts atomic.Int64
	s.lib.EnableResilience(&churnHook{d: s.daemon, restarts: &restarts})
	var mu sync.Mutex
	execs := map[uint64]int{}
	s.daemon.RegisterHighLevel("count", func(api *cuda.API, region *shm.Region, args []uint64, blob []byte) ([]uint64, []byte, cuda.Result) {
		mu.Lock()
		execs[args[0]]++
		mu.Unlock()
		return nil, nil, cuda.Success
	})

	const calls = 300
	stop, churned := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(churned)
		for i := 0; ; i++ {
			select {
			case <-stop:
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
				if !s.lib.Healthy() {
					s.lib.MarkRecovered()
				}
			case 3:
				if got, want := s.daemon.Restarts(), int64(s.daemon.Generation()); got > want {
					t.Errorf("Restarts() = %d ahead of Generation() = %d", got, want)
				}
			case 4:
				s.daemon.ExportJournal()
			}
			runtime.Gosched()
		}
	}()
	ok := make([]bool, calls)
	succeeded := 0
	for i := range ok {
		_, _, r := s.lib.CallHighLevel("count", []uint64{uint64(i)}, nil)
		if ok[i] = r == cuda.Success; ok[i] {
			succeeded++
		}
	}
	close(stop)
	<-churned

	mu.Lock()
	defer mu.Unlock()
	for i, good := range ok {
		if n := execs[uint64(i)]; n > 1 || good && n != 1 {
			t.Errorf("call %d (success %v) executed %d times", i, good, n)
		}
	}
	if succeeded == 0 {
		t.Fatal("no call succeeded")
	}
	if got := s.daemon.Restarts(); got != int64(s.daemon.Generation()) || got != restarts.Load() {
		t.Fatalf("Restarts() = %d, Generation() = %d, restarts issued = %d", got, s.daemon.Generation(), restarts.Load())
	}
	t.Logf("%d/%d calls succeeded, %d restarts", succeeded, calls, restarts.Load())
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
