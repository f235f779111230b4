package sched

import (
	"testing"
	"time"
)

func TestNewSimValidation(t *testing.T) {
	if _, err := NewSim(Config{Cores: 1}, nil); err == nil {
		t.Fatal("single-core sim accepted")
	}
}

func TestAllTasksComplete(t *testing.T) {
	s, _ := NewSim(DefaultConfig(), nil)
	s.SpawnRandom(100, 2*time.Millisecond, 20*time.Millisecond)
	st := s.Run(10 * time.Second)
	if st.Completed != 100 {
		t.Fatalf("completed %d/100", st.Completed)
	}
	if st.Makespan <= 0 || st.AvgTurnTime <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHeuristicMigratesUnderImbalance(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.Nodes = 1
	s, _ := NewSim(cfg, nil)
	// Pile work on one node/core pattern: spawn all on node 0; Spawn
	// load-balances initial placement, so force imbalance by spawning
	// sequentially with heavy work.
	for i := 0; i < 12; i++ {
		s.Spawn(50*time.Millisecond, 1, 0)
	}
	// Spawn placement spreads evenly, so skew the queues manually to
	// create the imbalance the balancer must react to.
	var all []*Task
	for c := range s.queues {
		all = append(all, s.queues[c]...)
		s.queues[c] = nil
	}
	s.queues[0] = all
	st := s.Run(5 * time.Second)
	if st.Decisions == 0 {
		t.Fatal("balancer never consulted")
	}
	if st.Completed != 12 {
		t.Fatalf("completed %d/12", st.Completed)
	}
}

func TestMigrationImprovesSkewedLoad(t *testing.T) {
	// With balancing disabled (balancer that never migrates), a skewed
	// load finishes later than with the heuristic.
	type never struct{}
	mk := func(b Balancer) Stats {
		cfg := DefaultConfig()
		cfg.Cores = 8
		cfg.Nodes = 1
		cfg.Seed = 7
		s, _ := NewSim(cfg, b)
		// Skew: many tasks land on few cores by spawning in bursts.
		for i := 0; i < 64; i++ {
			s.Spawn(30*time.Millisecond, 1, 0)
		}
		// Manually skew queues: move everything to core 0.
		var all []*Task
		for c := range s.queues {
			all = append(all, s.queues[c]...)
			s.queues[c] = nil
		}
		s.queues[0] = all
		return s.Run(20 * time.Second)
	}
	_ = never{}
	balanced := mk(nil)
	unbalanced := mk(neverBalancer{})
	if balanced.Makespan >= unbalanced.Makespan {
		t.Fatalf("work stealing did not help: balanced %v vs unbalanced %v",
			balanced.Makespan, unbalanced.Makespan)
	}
	if balanced.Migrations == 0 {
		t.Fatal("no migrations recorded")
	}
}

type neverBalancer struct{}

func (neverBalancer) ShouldMigrate(Features) bool { return false }

func TestSamplesLabeled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	s, _ := NewSim(cfg, nil)
	s.SpawnRandom(200, time.Millisecond, 50*time.Millisecond)
	// Skew to force balancing decisions.
	var all []*Task
	for c := range s.queues {
		all = append(all, s.queues[c]...)
		s.queues[c] = nil
	}
	s.queues[0] = all
	s.Run(time.Minute)
	samples := s.Samples()
	if len(samples) == 0 {
		t.Fatal("no training samples produced")
	}
	pos := 0
	for _, smp := range samples {
		if v := smp.Features.Vector(); len(v) != VectorSize {
			t.Fatalf("vector size %d, want %d", len(v), VectorSize)
		}
		if smp.Beneficial {
			pos++
		}
	}
	if pos == 0 || pos == len(samples) {
		t.Fatalf("degenerate labels: %d/%d beneficial", pos, len(samples))
	}
}

func TestFeaturesVectorEncoding(t *testing.T) {
	f := Features{
		SrcQueueLen: 3, DstQueueLen: 1, SrcLoad: 5, DstLoad: 2,
		TaskRemaining: 2 * time.Millisecond, TaskWeight: 2,
		CacheHot: true, SameNode: false, Imbalance: 0.6,
	}
	v := f.Vector()
	if v[0] != 3 || v[1] != 1 || v[5] != 2 || v[6] != 1 || v[7] != 0 {
		t.Fatalf("vector = %v", v)
	}
	if v[8] < 0.59 || v[8] > 0.61 {
		t.Fatalf("imbalance encoded as %v", v[8])
	}
}

func TestSpawnDefaults(t *testing.T) {
	s, _ := NewSim(DefaultConfig(), nil)
	task := s.Spawn(time.Millisecond, 0, 99)
	if task.Weight != 1 {
		t.Fatalf("weight = %d, want clamped 1", task.Weight)
	}
	if task.Node >= s.cfg.Nodes {
		t.Fatalf("node = %d out of range", task.Node)
	}
}

func TestWeightedTasksGetProportionalShare(t *testing.T) {
	// Round-robin within a queue is per-task; weights influence load
	// accounting and therefore balancing decisions.
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.Nodes = 1
	s, _ := NewSim(cfg, nil)
	heavy := s.Spawn(20*time.Millisecond, 3, 0)
	light := s.Spawn(20*time.Millisecond, 1, 0)
	st := s.Run(time.Second)
	if st.Completed != 2 {
		t.Fatalf("completed %d/2", st.Completed)
	}
	_ = heavy
	_ = light
}

func TestNUMAPlacementPrefersNode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 8
	cfg.Nodes = 2
	s, _ := NewSim(cfg, nil)
	// Tasks on node 1 must land on node-1 cores (odd indices with 2 nodes).
	for i := 0; i < 8; i++ {
		task := s.Spawn(time.Millisecond, 1, 1)
		if task.LastCore%2 != 1 {
			t.Fatalf("node-1 task placed on core %d", task.LastCore)
		}
	}
}

func TestCrossNodeMigrationPenalized(t *testing.T) {
	cfg := DefaultConfig()
	s, _ := NewSim(cfg, nil)
	f := Features{SrcLoad: 10, DstLoad: 0, SameNode: false, TaskRemaining: time.Millisecond}
	// Ground truth must be less eager across nodes: with identical loads,
	// remote-node moves need a larger gap.
	task := &Task{Remaining: time.Millisecond}
	localOK := s.beneficial(&Task{Remaining: 50 * time.Millisecond}, Features{SrcLoad: 1.5, DstLoad: 0, SameNode: true})
	remoteOK := s.beneficial(&Task{Remaining: 50 * time.Millisecond}, Features{SrcLoad: 1.5, DstLoad: 0, SameNode: false})
	if !localOK {
		t.Fatal("mild imbalance should justify a local-node steal")
	}
	if remoteOK {
		t.Fatal("the same mild imbalance should not justify a remote-node steal")
	}
	_ = f
	_ = task
}

func TestStepIdleCoresNoOp(t *testing.T) {
	s, _ := NewSim(DefaultConfig(), nil)
	s.Step() // no tasks: must not panic, time advances
	if s.now == 0 {
		t.Fatal("Step did not advance time")
	}
}
