//go:build !amd64 || purego

package nn

// lanes is 1 without an assembly kernel: ForwardSlab's scratch holds one row
// a layer, and every row runs on Layer.forward.
const lanes = 1

// forwardLanes computes no rows: there is no lanes kernel to run them.
func (n *Network) forwardLanes(in []float32, items int, out, a, b []float32) int { return 0 }
