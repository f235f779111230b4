// Package lifecycle manages the online model lifecycle for LAKE's
// ML-assisted subsystems: content-hashed immutable model versions behind
// one serving slot, an in-daemon online trainer driven by a bounded
// feedback channel of observed outcomes, and a drift detector that demotes
// a degraded model back to its predecessor — or all the way to the
// CPU/heuristic path — without ever dropping or mixing an inference.
//
// The paper trains its models offline and ships frozen weights into the
// kernel module; §8 calls out keeping models current as the open problem
// ("the kernel must adapt as workloads shift"). This package closes that
// loop inside lakeD: the daemon observes ground truth as it completes I/Os
// (did the read actually turn out slow?), feeds those outcomes back into
// SGD on a working copy of the serving model, A-B shadow-scores the
// candidate against the serving version over the same recent window, and
// promotes only when the candidate is measurably better. Every version is
// content-hashed and retained, so a promotion that later drifts is rolled
// back through the same predictor swap that installed it.
package lifecycle

import "lakego/internal/nn"

// Version is one immutable registered model snapshot. The weights behind
// Net() must never be mutated — the trainer always works on its own clone.
type Version struct {
	// Seq is the registration ordinal, unique and monotonically increasing
	// within one manager (1 is the base version).
	Seq uint64
	// Hash is the FNV-1a 64-bit content hash of the serialized weights:
	// two versions with equal hashes are (to hash collision) the same
	// model, and registration dedups on it.
	Hash uint64

	net *nn.Network
}

// Net returns the version's network. The snapshot is shared, not copied:
// callers must treat it as read-only (inference only — train on a Clone).
func (v *Version) Net() *nn.Network { return v.net }
