// Package sched is a multi-core scheduler simulator with a pull-based
// work-stealing load balancer, the substrate for the MLLB workload (§7.3:
// "The Linux kernel does load balancing using a pull-based, work-stealing
// mechanism that moves processes' execution between CPUs").
//
// The simulator runs tasks on per-core run queues in fixed ticks; every
// balancing period an idle-ish core scans the busiest core and asks a
// Balancer — the CFS-style heuristic, or an ML model through LAKE — whether
// to steal each candidate task, mirroring can_migrate_task. The simulator
// also labels each migration opportunity with ground truth (did stealing
// reduce the task's completion time net of the cache/NUMA penalty), which is
// the training signal the MLLB model learns from.
package sched

import (
	"fmt"
	"math/rand"
	"time"
)

// Task is one runnable process.
type Task struct {
	ID int
	// Remaining is the CPU time left to finish.
	Remaining time.Duration
	// Weight scales the share of a core the task receives (nice level).
	Weight int
	// LastCore tracks cache affinity; migrating off it costs a warmup.
	LastCore int
	// Node is the task's preferred NUMA node.
	Node int
	// arrived and finished record lifecycle timestamps.
	arrived  time.Duration
	finished time.Duration
}

// Features is the per-candidate migration feature vector, modeled on the
// signals MLLB feeds its perceptron: source/destination load, queue
// lengths, the task's cache footprint proxy and NUMA distance.
type Features struct {
	SrcQueueLen   int
	DstQueueLen   int
	SrcLoad       float64 // sum of weights on source
	DstLoad       float64
	TaskRemaining time.Duration
	TaskWeight    int
	CacheHot      bool // ran on src within the hot window
	SameNode      bool
	Imbalance     float64 // (srcLoad-dstLoad)/max(srcLoad,1)
}

// VectorSize is the width of Features.Vector().
const VectorSize = 9

// Vector flattens the features for ML consumption.
func (f Features) Vector() []float32 {
	b2f := func(b bool) float32 {
		if b {
			return 1
		}
		return 0
	}
	return []float32{
		float32(f.SrcQueueLen),
		float32(f.DstQueueLen),
		float32(f.SrcLoad),
		float32(f.DstLoad),
		float32(f.TaskRemaining.Microseconds()) / 1000,
		float32(f.TaskWeight),
		b2f(f.CacheHot),
		b2f(f.SameNode),
		float32(f.Imbalance),
	}
}

// Balancer decides whether to migrate a candidate task.
type Balancer interface {
	ShouldMigrate(f Features) bool
}

// Heuristic is the CFS-flavoured default: steal when the load imbalance
// exceeds 25% and the task is not cache-hot on its current core.
type Heuristic struct{}

// ShouldMigrate implements Balancer.
func (Heuristic) ShouldMigrate(f Features) bool {
	return f.Imbalance > 0.25 && !f.CacheHot
}

// Config parameterizes a simulation.
type Config struct {
	Cores int
	Nodes int // NUMA nodes; cores are striped across them
	Seed  int64
}

const (
	// tick is the scheduler tick: every core runs its queue head this long.
	tick = time.Millisecond
	// balancePeriod is how often a balancing pass runs.
	balancePeriod = 4 * time.Millisecond
	// migrationPenalty is the cache-refill cost charged to a stolen task.
	migrationPenalty = 200 * time.Microsecond
)

// DefaultConfig is a 16-core, 2-node machine; the sim runs 1ms ticks.
func DefaultConfig() Config {
	return Config{
		Cores: 16,
		Nodes: 2,
		Seed:  1,
	}
}

// Sample is one labeled migration opportunity, the training record MLLB
// consumes.
type Sample struct {
	Features Features
	// Beneficial is ground truth: stealing would reduce the task's
	// completion time by more than the migration penalty.
	Beneficial bool
}

// Stats summarizes a simulation run.
type Stats struct {
	Completed   int
	Migrations  int
	Makespan    time.Duration
	AvgTurnTime time.Duration
	Decisions   int
}

// Sim is one scheduler simulation instance.
type Sim struct {
	cfg      Config
	rng      *rand.Rand
	queues   [][]*Task
	now      time.Duration
	done     []*Task
	balancer Balancer

	migrations int
	decisions  int
	samples    []Sample
}

// NewSim creates a simulator with the given balancer (nil = Heuristic).
func NewSim(cfg Config, b Balancer) (*Sim, error) {
	if cfg.Cores <= 1 {
		return nil, fmt.Errorf("sched: need >= 2 cores, got %d", cfg.Cores)
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if b == nil {
		b = Heuristic{}
	}
	return &Sim{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		queues:   make([][]*Task, cfg.Cores),
		balancer: b,
	}, nil
}

// Spawn adds a task to the least-loaded core on its preferred node.
func (s *Sim) Spawn(work time.Duration, weight, node int) *Task {
	if weight <= 0 {
		weight = 1
	}
	node = node % s.cfg.Nodes
	best := -1
	for c := 0; c < s.cfg.Cores; c++ {
		if c%s.cfg.Nodes != node {
			continue
		}
		if best == -1 || len(s.queues[c]) < len(s.queues[best]) {
			best = c
		}
	}
	t := &Task{
		ID:        len(s.done) + s.totalQueued() + 1,
		Remaining: work,
		Weight:    weight,
		LastCore:  best,
		Node:      node,
		arrived:   s.now,
	}
	s.queues[best] = append(s.queues[best], t)
	return t
}

// SpawnRandom adds n tasks with work drawn uniformly from [minW, maxW].
func (s *Sim) SpawnRandom(n int, minW, maxW time.Duration) {
	for i := 0; i < n; i++ {
		w := minW + time.Duration(s.rng.Int63n(int64(maxW-minW)+1))
		s.Spawn(w, 1+s.rng.Intn(3), s.rng.Intn(s.cfg.Nodes))
	}
}

func (s *Sim) totalQueued() int {
	n := 0
	for _, q := range s.queues {
		n += len(q)
	}
	return n
}

func (s *Sim) load(core int) float64 {
	var l float64
	for _, t := range s.queues[core] {
		l += float64(t.Weight)
	}
	return l
}

// features builds the migration feature vector for stealing t from src to
// dst.
func (s *Sim) features(t *Task, src, dst int) Features {
	srcLoad, dstLoad := s.load(src), s.load(dst)
	den := srcLoad
	if den < 1 {
		den = 1
	}
	return Features{
		SrcQueueLen:   len(s.queues[src]),
		DstQueueLen:   len(s.queues[dst]),
		SrcLoad:       srcLoad,
		DstLoad:       dstLoad,
		TaskRemaining: t.Remaining,
		TaskWeight:    t.Weight,
		CacheHot:      t.LastCore == src && t.Remaining > 0,
		SameNode:      src%s.cfg.Nodes == dst%s.cfg.Nodes,
		Imbalance:     (srcLoad - dstLoad) / den,
	}
}

// beneficial computes ground truth for a candidate migration: expected
// queueing time saved (net of the slot the move itself frees) versus the
// cache/NUMA penalty paid. Near-done tasks are never worth moving.
func (s *Sim) beneficial(t *Task, f Features) bool {
	saved := (f.SrcLoad - f.DstLoad - 1) * float64(tick)
	penalty := migrationPenalty
	if !f.SameNode {
		penalty *= 3 // remote NUMA pull costs more
	}
	if f.CacheHot {
		penalty += migrationPenalty
	}
	if t.Remaining <= 4*penalty {
		return false
	}
	return saved > float64(penalty)
}

// balance runs one balancing pass: each underloaded core considers stealing
// from the busiest core.
func (s *Sim) balance() {
	busiest, idlest := 0, 0
	for c := 1; c < s.cfg.Cores; c++ {
		if s.load(c) > s.load(busiest) {
			busiest = c
		}
		if s.load(c) < s.load(idlest) {
			idlest = c
		}
	}
	if busiest == idlest || len(s.queues[busiest]) <= 1 {
		return
	}
	q := s.queues[busiest]
	for i := len(q) - 1; i >= 0 && len(s.queues[busiest]) > 1; i-- {
		t := q[i]
		f := s.features(t, busiest, idlest)
		s.decisions++
		s.samples = append(s.samples, Sample{Features: f, Beneficial: s.beneficial(t, f)})
		if !s.balancer.ShouldMigrate(f) {
			continue
		}
		// Steal.
		s.queues[busiest] = append(s.queues[busiest][:i], s.queues[busiest][i+1:]...)
		t.Remaining += migrationPenalty
		t.LastCore = idlest
		s.queues[idlest] = append(s.queues[idlest], t)
		s.migrations++
		q = s.queues[busiest]
		break // one steal per pass, like CFS's conservative pulls
	}
}

// Step advances the simulation one tick: every core runs the head of its
// queue (round robin within the queue).
func (s *Sim) Step() {
	if s.now%balancePeriod == 0 && s.now > 0 {
		s.balance()
	}
	for c := 0; c < s.cfg.Cores; c++ {
		q := s.queues[c]
		if len(q) == 0 {
			continue
		}
		t := q[0]
		t.Remaining -= tick
		t.LastCore = c
		if t.Remaining <= 0 {
			t.finished = s.now + tick
			s.done = append(s.done, t)
			s.queues[c] = q[1:]
		} else {
			// Rotate for round-robin fairness.
			s.queues[c] = append(q[1:], t)
		}
	}
	s.now += tick
}

// Run steps until all tasks finish or the horizon elapses, returning stats.
func (s *Sim) Run(horizon time.Duration) Stats {
	for s.now < horizon && s.totalQueued() > 0 {
		s.Step()
	}
	var turn time.Duration
	for _, t := range s.done {
		turn += t.finished - t.arrived
	}
	st := Stats{
		Completed:  len(s.done),
		Migrations: s.migrations,
		Makespan:   s.now,
		Decisions:  s.decisions,
	}
	if len(s.done) > 0 {
		st.AvgTurnTime = turn / time.Duration(len(s.done))
	}
	return st
}

// Samples returns the labeled migration opportunities observed so far.
func (s *Sim) Samples() []Sample { return s.samples }
