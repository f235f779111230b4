package gpupool

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
)

// Ring is a seeded consistent-hash ring over member ordinals 0..n-1, the
// placement structure behind the ConsistentHash policy. Each member owns
// ringReplicas virtual points whose positions derive from (seed, member,
// replica) through FNV-1a plus an avalanche finalizer (FNV alone clusters
// badly on short, mostly-zero inputs, which skews arc ownership — see
// TestRingBalance), so the layout is a pure function of the seed:
// fixed-seed runs place identically, and changing the member count moves
// only the keys adjacent to the added or removed points.
//
// The fleet router walks the ring clockwise past unhealthy shards
// (PickHealthy), which is what makes drain and shard death re-route only
// the keys that lived on the lost member.
type Ring struct {
	hashes  []uint64 // sorted virtual-point positions
	members []int    // members[i] owns hashes[i]
}

// ringReplicas is the virtual-point count per member: enough that key
// ownership is near-uniform at small member counts.
const ringReplicas = 64

// NewRing builds a ring over n members.
func NewRing(n int, seed int64) *Ring {
	r := &Ring{}
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(seed))
	for m := 0; m < n; m++ {
		binary.LittleEndian.PutUint64(buf[8:], uint64(m))
		for v := 0; v < ringReplicas; v++ {
			binary.LittleEndian.PutUint64(buf[16:], uint64(v))
			h := fnv.New64a()
			h.Write(buf[:])
			r.hashes = append(r.hashes, mix64(h.Sum64()))
			r.members = append(r.members, m)
		}
	}
	sort.Sort(ringOrder{r})
	return r
}

// mix64 is the splitmix64 finalizer: a bijective avalanche that spreads
// FNV's weakly-mixed output uniformly over the ring's key space.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Pick returns the member owning key: the first virtual point at or after
// the key's hash, wrapping at the top of the ring.
func (r *Ring) Pick(key string) int {
	return r.PickHealthy(key, nil)
}

// PickHealthy returns the first member at or after key's hash for which
// healthy reports true (nil means all healthy), walking clockwise past
// unhealthy owners. Returns -1 when no member is healthy.
func (r *Ring) PickHealthy(key string, healthy func(int) bool) int {
	if len(r.hashes) == 0 {
		return -1
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	kh := mix64(h.Sum64())
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= kh })
	for i := 0; i < len(r.hashes); i++ {
		m := r.members[(start+i)%len(r.hashes)]
		if healthy == nil || healthy(m) {
			return m
		}
	}
	return -1
}

// ringOrder sorts the parallel hash/member slices by hash position, with
// the member ordinal as a tiebreak so equal hashes (vanishingly rare but
// possible) still order deterministically.
type ringOrder struct{ r *Ring }

func (o ringOrder) Len() int { return len(o.r.hashes) }
func (o ringOrder) Less(i, j int) bool {
	if o.r.hashes[i] != o.r.hashes[j] {
		return o.r.hashes[i] < o.r.hashes[j]
	}
	return o.r.members[i] < o.r.members[j]
}
func (o ringOrder) Swap(i, j int) {
	o.r.hashes[i], o.r.hashes[j] = o.r.hashes[j], o.r.hashes[i]
	o.r.members[i], o.r.members[j] = o.r.members[j], o.r.members[i]
}
