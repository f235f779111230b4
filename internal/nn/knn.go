package nn

import "fmt"

// KNN is the k-nearest-neighbours classifier behind the malware detection
// workload (§7.5: "a kernel driver which uses a KNN classifier to classify
// user programs as malicious or benign", after Demme et al.'s
// performance-counter detector): an immutable reference database with
// integer labels, queried by real Euclidean distances and a majority vote
// among the k nearest labels. The evaluation's database of 16,384 reference
// points with up to 1,024 features per sample (Fig 12) makes brute-force KNN
// a massively parallel, GPU-friendly kernel; Flops feeds the GPU cost model.
type KNN struct {
	dim    int
	points [][]float32
	labels []int
	k      int
}

// NewKNN builds a classifier over the given reference points. k is the
// neighbourhood size (the paper uses 16).
func NewKNN(points [][]float32, labels []int, k int) (*KNN, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("nn: knn: empty reference set")
	}
	if len(points) != len(labels) {
		return nil, fmt.Errorf("nn: knn: %d points but %d labels", len(points), len(labels))
	}
	if k <= 0 || k > len(points) {
		return nil, fmt.Errorf("nn: knn: k=%d invalid for %d points", k, len(points))
	}
	dim := len(points[0])
	if dim == 0 {
		return nil, fmt.Errorf("nn: knn: zero-dimensional points")
	}
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("nn: knn: point %d has %d dims, want %d", i, len(p), dim)
		}
	}
	return &KNN{dim: dim, points: points, labels: labels, k: k}, nil
}

// Dim returns the feature dimensionality.
func (c *KNN) Dim() int { return c.dim }

// Size returns the reference database size.
func (c *KNN) Size() int { return len(c.points) }

// K returns the neighbourhood size.
func (c *KNN) K() int { return c.k }

// nearer orders squared distances with NaN after every number.
func nearer(a, b float32) bool { return a < b || b != b && a == a }

// neighbour is one of a query's k nearest reference points so far.
type neighbour struct {
	d     float32
	label int
}

// Classify returns the majority label among the k reference points nearest
// q by squared Euclidean distance (the monotone transform preserves
// neighbour order), the lowest label on a tied vote. The k nearest so far
// are kept sorted as they are found, ties in the order they came; a NaN
// distance — a NaN in q or in a point — ranks after every number, so it
// never evicts a neighbour.
func (c *KNN) Classify(q []float32) (int, error) {
	if len(q) != c.dim {
		return 0, fmt.Errorf("nn: knn: query has %d dims, want %d", len(q), c.dim)
	}
	best := make([]neighbour, 0, c.k)
	for i, p := range c.points {
		var d float32
		for j, v := range p {
			diff := v - q[j]
			d += float32(diff * diff)
		}
		n := len(best)
		if n == c.k {
			if !nearer(d, best[n-1].d) {
				continue
			}
			n-- // the farthest makes room
		} else {
			best = best[:n+1]
		}
		for ; n > 0 && nearer(d, best[n-1].d); n-- {
			best[n] = best[n-1]
		}
		best[n] = neighbour{d, c.labels[i]}
	}
	winner, votes := 0, 0
	for _, a := range best {
		n := 0
		for _, b := range best {
			if b.label == a.label {
				n++
			}
		}
		if n > votes || n == votes && a.label < winner {
			winner, votes = a.label, n
		}
	}
	return winner, nil
}

// Flops returns the FLOP count of classifying `queries` samples:
// 3 FLOPs (sub, mul, add) per reference-point dimension per query.
func (c *KNN) Flops(queries int) float64 {
	return 3 * float64(queries) * float64(len(c.points)) * float64(c.dim)
}
