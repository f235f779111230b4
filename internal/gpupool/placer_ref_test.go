package gpupool

import (
	"fmt"
	"math/rand"
	"testing"
)

// The reference below is the device pool's and the fleet router's own
// selection code from before both called Placer, kept verbatim except that
// a device's or shard's load is read from loads and a shard's Active state
// from active. FuzzPlacerDifferential checks that Placer.Pick makes every
// pick and every PRNG draw the same.

type refPool struct {
	loads  []Load
	policy Policy

	rng    *rand.Rand
	cursor int
	ring   *Ring // non-nil iff policy is ConsistentHash
}

func (p *refPool) Place(client string) int {
	var ord int
	switch p.policy {
	case LeastOutstanding:
		ord = p.leastOutstandingLocked(nil)
	case ContentionAware:
		ord = p.contentionAwareLocked(nil)
	case ConsistentHash:
		ord = p.ring.Pick(client)
	default:
		ord = p.cursor % len(p.loads)
		p.cursor++
	}
	return ord
}

func (p *refPool) PlaceFlush(eligible []int) int {
	return p.contentionAwareLocked(eligible)
}

func (p *refPool) leastOutstandingLocked(eligible []int) int {
	best, bestBacklog := -1, int64(0)
	for _, ord := range p.eligible(eligible) {
		backlog := p.loads[ord].Backlog
		if backlog < 0 {
			backlog = 0
		}
		if best < 0 || backlog < bestBacklog {
			best, bestBacklog = ord, backlog
		}
	}
	return best
}

func (p *refPool) contentionAwareLocked(eligible []int) int {
	type cand struct {
		ord     int
		util    float64
		backlog int64
	}
	var best []cand
	for _, ord := range p.eligible(eligible) {
		c := cand{ord: ord, util: p.loads[ord].Util, backlog: p.loads[ord].Backlog}
		if c.backlog < 0 {
			c.backlog = 0
		}
		switch {
		case len(best) == 0:
			best = append(best, c)
		case c.util < best[0].util || (c.util == best[0].util && c.backlog < best[0].backlog):
			best = append(best[:0], c)
		case c.util == best[0].util && c.backlog == best[0].backlog:
			best = append(best, c)
		}
	}
	if len(best) == 1 {
		return best[0].ord
	}
	return best[p.rng.Intn(len(best))].ord
}

func (p *refPool) eligible(filter []int) []int {
	if filter == nil {
		all := make([]int, len(p.loads))
		for i := range all {
			all[i] = i
		}
		return all
	}
	var out []int
	for _, ord := range filter {
		if ord >= 0 && ord < len(p.loads) {
			out = append(out, ord)
		}
	}
	if len(out) == 0 {
		out = append(out, 0)
	}
	return out
}

type refFleet struct {
	loads  []Load
	active []bool
	policy Policy
	ring   *Ring

	rng    *rand.Rand
	cursor int
}

func (f *refFleet) place(tenant string) int {
	ord := -1
	switch f.policy {
	case ConsistentHash:
		ord = f.ring.PickHealthy(tenant, func(m int) bool {
			return f.active[m]
		})
	case LeastOutstanding:
		ord = f.leastOutstandingLocked()
	case ContentionAware:
		ord = f.contentionAwareLocked()
	default: // RoundRobin
		for range f.loads {
			cand := f.cursor % len(f.loads)
			f.cursor++
			if f.active[cand] {
				ord = cand
				break
			}
		}
	}
	return ord
}

func (f *refFleet) successorLocked() int { return f.leastOutstandingLocked() }

func (f *refFleet) leastOutstandingLocked() int {
	best, bestOut := -1, int64(0)
	for ord := range f.loads {
		if !f.active[ord] {
			continue
		}
		out := f.loads[ord].Backlog
		if best < 0 || out < bestOut {
			best, bestOut = ord, out
		}
	}
	return best
}

func (f *refFleet) contentionAwareLocked() int {
	type cand struct {
		ord  int
		util int
		out  int64
	}
	var best []cand
	for ord := range f.loads {
		if !f.active[ord] {
			continue
		}
		c := cand{ord: ord, util: int(f.loads[ord].Util), out: f.loads[ord].Backlog}
		switch {
		case len(best) == 0:
			best = append(best, c)
		case c.util < best[0].util || (c.util == best[0].util && c.out < best[0].out):
			best = append(best[:0], c)
		case c.util == best[0].util && c.out == best[0].out:
			best = append(best, c)
		}
	}
	switch len(best) {
	case 0:
		return -1
	case 1:
		return best[0].ord
	}
	return best[f.rng.Intn(len(best))].ord
}

// FuzzPlacerDifferential drives one pool-shaped and one fleet-shaped
// Placer through 64 picks against the reference. Loads are drawn from
// {0, 1, 2} so ties are common; data also decides, per member and pick,
// whether a shard is Active (none may be) and, per pick, whether the pool
// places a flush instead of a context and the fleet picks a migration
// successor instead of a tenant's shard.
func FuzzPlacerDifferential(f *testing.F) {
	f.Add(int64(1), uint8(ContentionAware), uint8(4), []byte{0})
	f.Add(int64(42), uint8(RoundRobin), uint8(3), []byte{0, 9, 0, 9, 9, 27})
	f.Add(int64(7), uint8(LeastOutstanding), uint8(5), []byte{1, 0, 2, 0, 1, 18})
	f.Add(int64(-3), uint8(ConsistentHash), uint8(8), []byte{9, 0, 9, 0, 3, 4, 27, 28})
	f.Fuzz(func(t *testing.T, seed int64, policy, members uint8, data []byte) {
		pol, n := Policy(policy%4), 1+int(members%8)
		if len(data) == 0 {
			data = []byte{0}
		}
		loads, active := make([]Load, n), make([]bool, n)
		pool := NewPlacer(pol, n, seed)
		fleet := NewPlacer(pol, n, seed)
		rp := &refPool{loads: loads, policy: pol, rng: rand.New(rand.NewSource(seed))}
		rf := &refFleet{loads: loads, active: active, policy: pol, rng: rand.New(rand.NewSource(seed))}
		if pol == ConsistentHash {
			rp.ring, rf.ring = NewRing(n, seed), NewRing(n, seed)
		}
		load := func(i int) Load { return loads[i] }
		ok := func(i int) bool { return active[i] }
		for k := 0; k < 64; k++ {
			var b byte
			for i := 0; i < n; i++ {
				b = data[(k*n+i)%len(data)]
				loads[i] = Load{Util: float64(b % 3), Backlog: int64(b / 3 % 3)}
				active[i] = b/9%2 == 0
			}
			other := b/18%2 == 1
			key := fmt.Sprintf("tenant-%d-%d", k, b)

			got, want := 0, 0
			if other {
				got, want = pool.Pick(ContentionAware, "", n, nil, load), rp.PlaceFlush(nil)
			} else {
				got, want = pool.Pick(pol, key, n, nil, load), rp.Place(key)
			}
			if got != want {
				t.Fatalf("pool %v pick %d (flush %v, loads %v): Pick = %d, reference = %d", pol, k, other, loads, got, want)
			}
			if other {
				got, want = fleet.Pick(LeastOutstanding, "", n, ok, load), rf.successorLocked()
			} else {
				got, want = fleet.Pick(pol, key, n, ok, load), rf.place(key)
			}
			if got != want {
				t.Fatalf("fleet %v pick %d (successor %v, loads %v, active %v): Pick = %d, reference = %d", pol, k, other, loads, active, got, want)
			}
		}
	})
}
