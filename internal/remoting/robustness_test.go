package remoting

import (
	"math/rand"
	"sync"
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
