package mllb

import (
	"testing"
	"time"

	"lakego/internal/core"
	"lakego/internal/nn"
	"lakego/internal/offload"
	"lakego/internal/sched"
)

func boot(t *testing.T) *core.Runtime {
	t.Helper()
	rt, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func TestNewRejectsWrongShape(t *testing.T) {
	rt := boot(t)
	if _, err := New(rt, nn.New(1, 5, 2)); err == nil {
		t.Fatal("wrong input width accepted")
	}
}

func TestTrainFromSimLearns(t *testing.T) {
	net, acc, err := TrainFromSim(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if net == nil || acc < 0.75 {
		t.Fatalf("training accuracy = %.3f, want >= 0.75", acc)
	}
}

func TestBalancerPluggableIntoScheduler(t *testing.T) {
	rt := boot(t)
	net, _, err := TrainFromSim(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(rt, net)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sched.DefaultConfig()
	cfg.Seed = 9
	sim, err := sched.NewSim(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	sim.SpawnRandom(150, time.Millisecond, 30*time.Millisecond)
	st := sim.Run(time.Minute)
	if st.Completed != 150 {
		t.Fatalf("completed %d/150 with ML balancer", st.Completed)
	}
}

// Fig 10 / Table 3: crossover at 256 tasks.
func TestFig10Crossover(t *testing.T) {
	rt := boot(t)
	b, err := New(rt, nn.New(4, Sizes()...))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := Sweep(b, offload.StandardBatches())
	if err != nil {
		t.Fatal(err)
	}
	got := offload.Crossover(pts)
	if got != 256 {
		for _, p := range pts {
			t.Logf("batch %4d: cpu=%v lake=%v sync=%v", p.Batch, p.CPU, p.LAKE, p.LAKESync)
		}
		t.Fatalf("crossover = %d, want 256 (Table 3)", got)
	}
}
