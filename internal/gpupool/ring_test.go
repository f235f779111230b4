package gpupool

import (
	"fmt"
	"testing"
)

// TestRingBalance: key ownership must be near-uniform. The original
// FNV-only ring concentrated 37% of sequential tenant-style keys on one of
// four members; with the avalanche finalizer every member's share of 1000
// keys must sit within 2x of fair.
func TestRingBalance(t *testing.T) {
	r := NewRing(4, 42)
	counts := make(map[int]int)
	const keys = 1000
	for i := 0; i < keys; i++ {
		m := r.Pick(fmt.Sprintf("tenant-%d", i))
		if m < 0 || m >= 4 {
			t.Fatalf("Pick returned member %d", m)
		}
		counts[m]++
	}
	for m := 0; m < 4; m++ {
		if c := counts[m]; c < keys/8 || c > keys/2 {
			t.Fatalf("member %d owns %d of %d keys (counts %v), want near %d",
				m, c, keys, counts, keys/4)
		}
	}
}

// TestRingSeededAndSticky: the layout is a pure function of the seed, and
// removing a member moves only the keys that lived on it.
func TestRingSeededAndSticky(t *testing.T) {
	a, b := NewRing(4, 7), NewRing(4, 7)
	healthy := func(skip int) func(int) bool {
		return func(m int) bool { return m != skip }
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		m := a.Pick(key)
		if got := b.Pick(key); got != m {
			t.Fatalf("same seed, different placement for %q: %d vs %d", key, m, got)
		}
		moved := a.PickHealthy(key, healthy(3))
		if m != 3 && moved != m {
			t.Fatalf("key %q moved from %d to %d when member 3 died", key, m, moved)
		}
		if m == 3 && moved == 3 {
			t.Fatalf("key %q stayed on dead member 3", key)
		}
	}
	if NewRing(4, 8).Pick("key-0") == a.Pick("key-0") &&
		NewRing(4, 8).Pick("key-1") == a.Pick("key-1") &&
		NewRing(4, 8).Pick("key-2") == a.Pick("key-2") &&
		NewRing(4, 8).Pick("key-3") == a.Pick("key-3") &&
		NewRing(4, 8).Pick("key-4") == a.Pick("key-4") {
		t.Fatal("two different seeds produced identical placements for 5 keys")
	}
}
