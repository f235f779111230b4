//go:build amd64 && !purego

package nn

// lanes is how many slab rows one pass of the dense kernel computes: the four
// float32 lanes of an SSE2 register, one row each. SSE2 is baseline amd64,
// so there is nothing to detect.
const lanes = 4

// denseLanes is Layer.forward on four rows at once. x holds the rows
// lane-major — x[k*4+lane] is input k of the lane's row — and y receives the
// out outputs the same way, through relu's arithmetic when relu is set. It
// reads w[:in*out], b[:out], x[:4*in] and writes y[:4*out] without bounds
// checks: the caller guarantees those lengths.
//
//go:noescape
func denseLanes(w, b, x, y []float32, in, out int, relu bool)

// forwardLanes runs the slab's rows through denseLanes a group of four at a
// time and returns how many leading rows it computed; ForwardSlab runs the
// rest on Layer.forward. A trailing group of two or three still takes a
// pass, its missing lanes zero. A lone row does not: a pass costs the same
// for one row as for four, which is more than Layer.forward on one row and
// less than on two (BenchmarkPerfNNForwardSlabSmall).
//
// Activations stay lane-major from layer to layer in a and b, each lanes
// times the widest layer; only the input is transposed in and the logits
// out.
func (n *Network) forwardLanes(in []float32, items int, out, a, b []float32) int {
	rows := items
	if items%lanes == 1 {
		rows--
	}
	inW, outW := n.InputSize(), n.OutputSize()
	for g := 0; g < rows; g += lanes {
		x := a[:lanes*inW]
		for lane := 0; lane < lanes; lane++ {
			if g+lane >= rows {
				for k := 0; k < inW; k++ {
					x[k*lanes+lane] = 0
				}
				continue
			}
			for k, v := range in[(g+lane)*inW:][:inW] {
				x[k*lanes+lane] = v
			}
		}
		cur, next := a, b
		for _, l := range n.Layers {
			denseLanes(l.W, l.B, cur[:lanes*l.In], next[:lanes*l.Out], l.In, l.Out, l.Act == ReLU)
			cur, next = next, cur
		}
		for lane := 0; lane < min(lanes, rows-g); lane++ {
			row := out[(g+lane)*outW:][:outW]
			for j := range row {
				row[j] = cur[j*lanes+lane]
			}
		}
	}
	return rows
}
