// Package lifecycle manages the online model lifecycle for LAKE's
// ML-assisted subsystems: a versioned registry of immutable model snapshots
// whose serving slot is an atomic pointer flip, an in-daemon online trainer
// driven by a bounded feedback channel of observed outcomes, and a drift
// detector that demotes a degraded model back to its predecessor — or all
// the way to the CPU/heuristic path — without ever dropping or mixing an
// inference.
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
// back with the same atomic flip that installed it.
package lifecycle

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lakego/internal/nn"
)

// Meta carries a version's provenance.
type Meta struct {
	// Model is the model family label ("linnos-NN", "kml", ...).
	Model string
	// Note is free-form provenance ("base", "online-retrain", ...).
	Note string
	// TrainedAt is the virtual time the version was registered.
	TrainedAt time.Duration
	// Samples is the cumulative feedback sample count behind the version.
	Samples int
	// ParentSeq is the Seq of the version this one was trained from
	// (0 for a root version).
	ParentSeq uint64
}

// Version is one immutable registered model snapshot. The weights behind
// Net() must never be mutated — the trainer always works on its own clone.
type Version struct {
	// Seq is the registration ordinal, unique and monotonically increasing
	// within one registry (1 is the first registered version).
	Seq uint64
	// Hash is the FNV-1a 64-bit content hash of the serialized weights:
	// two versions with equal hashes are (to hash collision) the same
	// model, and the registry dedups on it.
	Hash uint64
	// Meta is the version's provenance.
	Meta Meta

	net  *nn.Network
	blob []byte
}

// Net returns the version's network. The snapshot is shared, not copied:
// callers must treat it as read-only (inference only — train on a Clone).
func (v *Version) Net() *nn.Network { return v.net }

// Blob returns a copy of the version's serialized weights (nn.Marshal
// format), suitable for persistence or shipping across the boundary.
func (v *Version) Blob() []byte { return append([]byte(nil), v.blob...) }

// SwapReason says why the serving slot flipped.
type SwapReason int

// Swap reasons; the values are stable — they ride flight-recorder events.
const (
	ReasonPromote  SwapReason = 0 // candidate beat serving in shadow scoring
	ReasonDemote   SwapReason = 1 // drift detector rolled the model back
	ReasonRollback SwapReason = 2 // explicit operator rollback
)

// Registry holds every registered version of one model and the serving
// slot. Registration and promotion serialize on an internal mutex; reading
// the serving version is a single atomic pointer load, so inference paths
// pay no lock and an in-flight batch that loaded the pointer before a flip
// simply completes on the version it started with — swaps never drop or
// mix inferences.
type Registry struct {
	mu       sync.Mutex
	serving  atomic.Pointer[Version]
	versions []*Version
	byHash   map[uint64]*Version
	// past is the serving-history stack Rollback pops: every Promote pushes
	// the displaced version.
	past    []*Version
	nextSeq uint64
}

// NewRegistry creates an empty registry (no serving version until the
// first Promote).
func NewRegistry() *Registry {
	return &Registry{byHash: make(map[uint64]*Version)}
}

func contentHash(blob []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(blob)
	return h.Sum64()
}

// Register snapshots net as a new immutable version and returns it. The
// network is deep-copied, so the caller may keep training the original.
// A re-registration of byte-identical weights returns the existing version
// instead of minting a duplicate.
func (r *Registry) Register(net *nn.Network, meta Meta) *Version {
	snap := net.Clone()
	blob := snap.Marshal()
	hash := contentHash(blob)
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.byHash[hash]; ok {
		return v
	}
	r.nextSeq++
	v := &Version{Seq: r.nextSeq, Hash: hash, Meta: meta, net: snap, blob: blob}
	r.versions = append(r.versions, v)
	r.byHash[hash] = v
	return v
}

// RegisterBlob decodes an untrusted serialized model through the hardened
// nn.Unmarshal (shape declarations are bounds-checked against the bytes
// actually present before any allocation) and registers it.
func (r *Registry) RegisterBlob(blob []byte, meta Meta) (*Version, error) {
	net, err := nn.Unmarshal(blob)
	if err != nil {
		return nil, fmt.Errorf("lifecycle: reject model blob: %w", err)
	}
	return r.Register(net, meta), nil
}

// Serving returns the current serving version (nil before the first
// Promote). One atomic load — safe from any goroutine, never blocks.
func (r *Registry) Serving() *Version { return r.serving.Load() }

// Versions lists every registered version in registration order.
func (r *Registry) Versions() []*Version {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]*Version(nil), r.versions...)
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Len reports how many versions are registered.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.versions)
}

// Promote flips the serving slot to the version with the given sequence
// number and returns (new, displaced). The displaced version (nil on the
// first promote) is pushed onto the rollback stack.
func (r *Registry) Promote(seq uint64) (*Version, *Version, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var v *Version
	for _, c := range r.versions {
		if c.Seq == seq {
			v = c
			break
		}
	}
	if v == nil {
		return nil, nil, fmt.Errorf("lifecycle: no version %d", seq)
	}
	old := r.serving.Load()
	if old == v {
		return v, old, nil
	}
	if old != nil {
		r.past = append(r.past, old)
	}
	r.serving.Store(v)
	return v, old, nil
}

// Rollback pops the previous serving version off the history stack and
// reinstates it, returning (reinstated, displaced). It fails when there is
// no earlier version to return to — the caller's cue to fall back to the
// heuristic path instead.
func (r *Registry) Rollback() (*Version, *Version, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.past) == 0 {
		return nil, nil, fmt.Errorf("lifecycle: no previous version to roll back to")
	}
	v := r.past[len(r.past)-1]
	r.past = r.past[:len(r.past)-1]
	old := r.serving.Load()
	r.serving.Store(v)
	return v, old, nil
}
