package gpupool

import "math/rand"

// Load is one member's placement signal: its utilization and its queued
// backlog. For a device that is NVML utilization and the virtual-ns
// horizon past now; for a fleet shard, pool-wide utilization and in-flight
// requests.
type Load struct {
	Util    float64
	Backlog int64
}

// Placer is the one placement engine behind the device pool and the fleet
// router: it owns the seeded PRNG that breaks ContentionAware ties, the
// RoundRobin cursor and, for ConsistentHash, the ring. It is not safe for
// concurrent use; each owner serializes Pick under the mutex it already
// holds, so fixed-seed runs draw in a reproducible order.
type Placer struct {
	rng    *rand.Rand
	cursor int
	ring   *Ring // non-nil iff built for ConsistentHash
}

// NewPlacer builds the engine for n members under policy. The seed drives
// both the tie-break PRNG and the ring layout.
func NewPlacer(policy Policy, n int, seed int64) Placer {
	p := Placer{rng: rand.New(rand.NewSource(seed))}
	if policy == ConsistentHash {
		p.ring = NewRing(n, seed)
	}
	return p
}

// Pick returns the member of 0..n-1 that policy places key on, or -1 when
// ok admits no member (nil ok admits all). load is read once per admitted
// member, by LeastOutstanding and ContentionAware only.
//
//   - RoundRobin takes the next cursor position ok admits; the cursor
//     advances once per member tried.
//   - LeastOutstanding takes the smallest backlog, lowest ordinal on ties,
//     with no draw.
//   - ContentionAware orders by utilization, then backlog, and draws
//     rng.Intn(ties) only when two or more members tie.
//   - ConsistentHash takes the ring owner of key, walking clockwise past
//     members ok rejects.
func (p *Placer) Pick(policy Policy, key string, n int, ok func(int) bool, load func(int) Load) int {
	switch policy {
	case ConsistentHash:
		return p.ring.PickHealthy(key, ok)
	case LeastOutstanding:
		best, bestBacklog := -1, int64(0)
		for i := 0; i < n; i++ {
			if ok != nil && !ok(i) {
				continue
			}
			if b := load(i).Backlog; best < 0 || b < bestBacklog {
				best, bestBacklog = i, b
			}
		}
		return best
	case ContentionAware:
		var buf [8]int
		ties, best := buf[:0], Load{}
		for i := 0; i < n; i++ {
			if ok != nil && !ok(i) {
				continue
			}
			l := load(i)
			switch {
			case len(ties) == 0 || l.Util < best.Util || (l.Util == best.Util && l.Backlog < best.Backlog):
				ties, best = append(ties[:0], i), l
			case l == best:
				ties = append(ties, i)
			}
		}
		switch len(ties) {
		case 0:
			return -1
		case 1:
			return ties[0]
		}
		return ties[p.rng.Intn(len(ties))]
	default: // RoundRobin
		for range n {
			i := p.cursor % n
			p.cursor++
			if ok == nil || ok(i) {
				return i
			}
		}
		return -1
	}
}
