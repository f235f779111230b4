package nn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKNNNewValidation(t *testing.T) {
	pts := [][]float32{{1, 2}, {3, 4}}
	labels := []int{0, 1}
	cases := []struct {
		name   string
		pts    [][]float32
		labels []int
		k      int
	}{
		{"empty", nil, nil, 1},
		{"len mismatch", pts, []int{0}, 1},
		{"k zero", pts, labels, 0},
		{"k too big", pts, labels, 3},
		{"dim mismatch", [][]float32{{1, 2}, {3}}, labels, 1},
		{"zero dim", [][]float32{{}, {}}, labels, 1},
	}
	for _, c := range cases {
		if _, err := NewKNN(c.pts, c.labels, c.k); err == nil {
			t.Errorf("%s: NewKNN succeeded, want error", c.name)
		}
	}
	if _, err := NewKNN(pts, labels, 2); err != nil {
		t.Fatalf("valid NewKNN failed: %v", err)
	}
}

func TestKNNClassifyNearest(t *testing.T) {
	c, err := NewKNN([][]float32{{0, 0}, {10, 10}}, []int{0, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Classify([]float32{1, 1}); got != 0 {
		t.Fatalf("Classify near origin = %d, want 0", got)
	}
	if got, _ := c.Classify([]float32{9, 9}); got != 1 {
		t.Fatalf("Classify near (10,10) = %d, want 1", got)
	}
}

func TestKNNClassifyMajorityVote(t *testing.T) {
	// With k=3, two label-1 points at distance 1 and one label-0 point at
	// distance 0 vote 2:1 for label 1.
	pts := [][]float32{{0, 0}, {1, 0}, {0, 1}, {50, 50}}
	labels := []int{0, 1, 1, 0}
	c, _ := NewKNN(pts, labels, 3)
	if got, _ := c.Classify([]float32{0, 0}); got != 1 {
		t.Fatalf("majority vote = %d, want 1", got)
	}
}

// A NaN distance ranks after every number: a NaN reference point never
// evicts a neighbour, and a NaN query, every distance NaN, keeps the first
// k points.
func TestKNNClassifyNaN(t *testing.T) {
	nan := float32(math.NaN())
	pts := [][]float32{{0, 0}, {1, 0}, {9, 9}, {nan, 0}}
	c, _ := NewKNN(pts, []int{1, 1, 0, 0}, 2)
	if got, err := c.Classify([]float32{0.5, 0}); err != nil || got != 1 {
		t.Fatalf("NaN reference point: Classify = %d, %v; want 1", got, err)
	}
	c, _ = NewKNN(pts, []int{2, 2, 0, 0}, 2)
	if got, err := c.Classify([]float32{0, nan}); err != nil || got != 2 {
		t.Fatalf("NaN query: Classify = %d, %v; want 2, the first two points' label", got, err)
	}
	c, _ = NewKNN([][]float32{{nan, 0}, {1, 0}, {9, 9}, {2, 0}}, []int{0, 1, 0, 1}, 2)
	if got, err := c.Classify([]float32{0, 0}); err != nil || got != 1 {
		t.Fatalf("NaN point first: Classify = %d, %v; want 1", got, err)
	}
}

func TestKNNClassifyDimMismatch(t *testing.T) {
	c, _ := NewKNN([][]float32{{1, 2}}, []int{0}, 1)
	if _, err := c.Classify([]float32{1}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

func TestKNNAccessors(t *testing.T) {
	c, _ := NewKNN([][]float32{{1, 2, 3}, {4, 5, 6}}, []int{0, 1}, 2)
	if c.Dim() != 3 || c.Size() != 2 || c.K() != 2 {
		t.Fatalf("Dim/Size/K = %d/%d/%d", c.Dim(), c.Size(), c.K())
	}
}

func TestKNNFlops(t *testing.T) {
	c, _ := NewKNN([][]float32{{1, 2}, {3, 4}}, []int{0, 1}, 1)
	if got := c.Flops(10); got != 3*10*2*2 {
		t.Fatalf("Flops(10) = %v, want 120", got)
	}
}

// Property: the classifier agrees with a brute-force sort-based oracle.
func TestKNNQuickAgreesWithOracle(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 5
		dim := rng.Intn(4) + 1
		pts := make([][]float32, n)
		labels := make([]int, n)
		for i := range pts {
			p := make([]float32, dim)
			for j := range p {
				p[j] = rng.Float32() * 10
			}
			pts[i] = p
			labels[i] = rng.Intn(3)
		}
		k := int(kRaw)%n + 1
		c, err := NewKNN(pts, labels, k)
		if err != nil {
			return false
		}
		q := make([]float32, dim)
		for j := range q {
			q[j] = rng.Float32() * 10
		}

		// Oracle: full sort by distance, majority among first k with
		// ties resolved identically (stable distance sort + lowest label).
		type nb struct {
			d     float32
			idx   int
			label int
		}
		nbs := make([]nb, n)
		for i, p := range pts {
			var d float32
			for j := range p {
				diff := p[j] - q[j]
				d += float32(diff * diff)
			}
			nbs[i] = nb{d, i, labels[i]}
		}
		sort.SliceStable(nbs, func(a, b int) bool { return nbs[a].d < nbs[b].d })
		votes := map[int]int{}
		for _, b := range nbs[:k] {
			votes[b.label]++
		}
		winner, winVotes := 0, -1
		for label, v := range votes {
			if v > winVotes || (v == winVotes && label < winner) {
				winner, winVotes = label, v
			}
		}

		got, err := c.Classify(q)
		if err != nil {
			return false
		}
		// Tie-breaking on equal distances at the k-boundary can
		// legitimately differ; accept when vote counts allow either.
		if got == winner {
			return true
		}
		// Check boundary tie: distance of k-th equals (k+1)-th.
		if k < n && nbs[k-1].d == nbs[k].d {
			return true
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refLess ranks squared distances with NaN after every number.
func refLess(a, b float32) bool { return a < b || b != b && a == a }

// refClassify is Classify as it was before it moved into nn — the first k
// sorted with sort.Slice, a sort.Search insert, a vote map — with only the
// NaN guard added: every distance comparison goes through refLess. It is the
// differential reference for Classify.
func refClassify(points [][]float32, labels []int, k int, q []float32) int {
	type nb struct {
		d     float32
		label int
	}
	best := make([]nb, 0, k)
	var worst float32
	for i, p := range points {
		var d float32
		for j, v := range p {
			diff := v - q[j]
			d += float32(diff * diff)
		}
		if len(best) < k {
			best = append(best, nb{d, labels[i]})
			if refLess(worst, d) || len(best) == 1 {
				worst = d
			}
			if len(best) == k {
				sort.Slice(best, func(a, b int) bool { return refLess(best[a].d, best[b].d) })
				worst = best[k-1].d
			}
			continue
		}
		if !refLess(d, worst) {
			continue
		}
		pos := sort.Search(k, func(a int) bool { return refLess(d, best[a].d) })
		copy(best[pos+1:], best[pos:k-1])
		best[pos] = nb{d, labels[i]}
		worst = best[k-1].d
	}
	votes := make(map[int]int)
	for _, b := range best {
		votes[b.label]++
	}
	winner, winVotes := 0, -1
	for label, n := range votes {
		if n > winVotes || (n == winVotes && label < winner) {
			winner, winVotes = label, n
		}
	}
	return winner
}

// FuzzKNNDifferential: for any reference set and query — arbitrary float32
// bit patterns, so NaNs, infinities and signed zeros included — Classify
// returns the reference's label. Points cycle through data, so a short data
// repeats points under different labels: exact-distance ties. k stays at 12
// or below, where sort.Slice is an insertion sort and the reference, like
// Classify, keeps tied neighbours in the order they came.
func FuzzKNNDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0x80, 0, 0, 0x80, 0x7f, 0xcd, 0xcc, 0x4c, 0xbe, 0, 0, 0, 0x40}, uint8(9), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, n, dim, k uint8) {
		if len(data) < 4 {
			return
		}
		pos := 0
		next := func() float32 {
			if pos+4 > len(data) {
				pos = 0
			}
			v := math.Float32frombits(binary.LittleEndian.Uint32(data[pos:]))
			pos += 4
			return v
		}
		points, labels := make([][]float32, int(n%40)+1), make([]int, int(n%40)+1)
		for i := range points {
			points[i], labels[i] = make([]float32, int(dim%6)+1), i%3
			for j := range points[i] {
				points[i][j] = next()
			}
		}
		q := make([]float32, len(points[0]))
		for j := range q {
			q[j] = next()
		}
		kk := int(k)%min(len(points), 12) + 1
		c, err := NewKNN(points, labels, kk)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Classify(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := refClassify(points, labels, kk, q); got != want {
			t.Fatalf("%d points, k %d: Classify = %d, reference %d", len(points), kk, got, want)
		}
	})
}
