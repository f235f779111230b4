// Package features implements LAKE's in-kernel feature registry (§5): named
// combinations of an ML model, a feature-vector schema and a capture window,
// with the full Table 1 API — asynchronous lock-free feature capture across
// module boundaries, history-array schema support, batch retrieval with
// truncation semantics, model lifecycle management, and classifier/policy
// registration for invoking inference.
//
// The registry needs nothing from the LAKE runtime: callers own their Store.
// Capture goes through a lock-free hash table (capture.go) and committed
// vectors live in a circular window (window.go), both private to it.
package features

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lakego/internal/policy"
)

// NullTS is the "null timestamp" Table 1's batch APIs accept: querying with
// it returns every feature vector in the window, truncating with it clears
// the ring (§5.4).
const NullTS = time.Duration(-1)

// Arch tags a registered classifier with the hardware it targets
// (register_classifier's arch parameter: "CPU / GPU / XPU").
type Arch int

// Classifier architectures.
const (
	ArchCPU Arch = iota
	ArchGPU
	ArchXPU
)

var archNames = [...]string{"CPU", "GPU", "XPU"}

func (a Arch) String() string {
	if a >= 0 && int(a) < len(archNames) {
		return archNames[a]
	}
	return fmt.Sprintf("Arch(%d)", int(a))
}

// Field describes one feature in a schema: a key mapping to
// <size, entries>, where size is bytes per value and entries > 1 requests
// the API-level history idiom of §5.2 (index 0 = most recent sample,
// 1..N-1 = samples from the previous N-1 committed vectors).
type Field struct {
	Key     string
	Size    int
	Entries int
}

// Schema is the ordered field list describing a registry's feature vectors.
type Schema []Field

// Validate checks the schema for well-formedness.
func (s Schema) Validate() error {
	if len(s) == 0 {
		return errors.New("features: schema has no fields")
	}
	seen := make(map[string]bool, len(s))
	for _, f := range s {
		if f.Key == "" {
			return errors.New("features: schema field with empty key")
		}
		if seen[f.Key] {
			return fmt.Errorf("features: duplicate schema key %q", f.Key)
		}
		seen[f.Key] = true
		if f.Size <= 0 {
			return fmt.Errorf("features: field %q size %d must be positive", f.Key, f.Size)
		}
		if f.Entries <= 0 {
			return fmt.Errorf("features: field %q entries %d must be positive", f.Key, f.Entries)
		}
	}
	return nil
}

// hasHistory reports whether any field keeps historical entries, which
// changes truncation semantics (§5.4: "LAKE will always preserve the most
// recent feature vector on truncation").
func (s Schema) hasHistory() bool {
	for _, f := range s {
		if f.Entries > 1 {
			return true
		}
	}
	return false
}

// Vector is one committed feature vector: the paper's
// <numfeatures, kvpair*, ts_begin, ts_end> record. Values holds, per key,
// Size*Entries bytes with the most recent sample at index 0.
type Vector struct {
	TsBegin time.Duration
	TsEnd   time.Duration
	Values  map[string][]byte
}

// Classifier runs inference over a batch of feature vectors and returns one
// score per vector (register_classifier's fn).
type Classifier func(batch []Vector) ([]float32, error)

// Registry is one named feature registry bound to a kernel subsystem.
//
// Capture calls (CaptureFeature, CaptureFeatureIncr) are lock-free and safe
// from any goroutine — the paper's requirement for instrumenting code sites
// with different locking disciplines. Ring-level operations (Commit,
// GetFeatures, Truncate) serialize on an internal mutex.
type Registry struct {
	name   string
	sys    string
	schema Schema

	current *captureTable // in-flight capture, persists across commits

	// Lock-free instrumentation counters (updated on the capture path).
	captures atomic.Int64
	incrs    atomic.Int64
	scored   atomic.Int64

	mu          sync.Mutex
	win         *window
	tsBegin     time.Duration
	classifiers map[Arch]Classifier
	pol         policy.Func
	commits     int64
}

// RegistryStats is a snapshot of a registry's activity counters.
type RegistryStats struct {
	// Captures and Incrs count capture_feature / capture_feature_incr
	// calls; Commits counts committed vectors; Scored counts vectors that
	// went through inference; Buffered is the current window occupancy.
	Captures, Incrs, Commits, Scored int64
	Buffered                         int
}

func newRegistry(name, sys string, schema Schema, window int) (*Registry, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if window <= 0 {
		return nil, fmt.Errorf("features: window %d must be positive", window)
	}
	return &Registry{
		name:        name,
		sys:         sys,
		schema:      schema,
		current:     newCaptureTable(len(schema)),
		win:         newWindow(window),
		classifiers: make(map[Arch]Classifier),
	}, nil
}

// Name returns the registry's name (e.g. a device name like "sda1").
func (r *Registry) Name() string { return r.name }

// Sys returns the owning subsystem (e.g. "bio_latency_prediction").
func (r *Registry) Sys() string { return r.sys }

// Schema returns the registry's schema.
func (r *Registry) Schema() Schema { return r.schema }

// Window returns the capture window (ring capacity).
func (r *Registry) Window() int { return len(r.win.buf) }

// Len returns the number of committed vectors currently buffered.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.win.n
}

// Commits returns the total number of vectors ever committed.
func (r *Registry) Commits() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.commits
}

func (r *Registry) field(key string) (Field, error) {
	for _, f := range r.schema {
		if f.Key == key {
			return f, nil
		}
	}
	return Field{}, fmt.Errorf("features: key %q not in schema of %s/%s", key, r.name, r.sys)
}

// Stats snapshots the registry's activity counters.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	commits := r.commits
	buffered := r.win.n
	r.mu.Unlock()
	return RegistryStats{
		Captures: r.captures.Load(),
		Incrs:    r.incrs.Load(),
		Commits:  commits,
		Scored:   r.scored.Load(),
		Buffered: buffered,
	}
}

// BeginCapture starts the creation of a new feature vector
// (begin_fv_capture). Captured values persist across commits — running
// counters like pend_ios carry forward, per the Listing 4/5 idiom.
func (r *Registry) BeginCapture(ts time.Duration) {
	r.mu.Lock()
	r.tsBegin = ts
	r.mu.Unlock()
}

// CaptureFeature sets the feature at key on the current vector
// (capture_feature). Callable lock-free from any goroutine.
func (r *Registry) CaptureFeature(key string, val []byte) error {
	f, err := r.field(key)
	if err != nil {
		return err
	}
	if len(val) > f.Size {
		return fmt.Errorf("features: value for %q is %d bytes, schema size %d",
			key, len(val), f.Size)
	}
	if !r.current.store(key, val) {
		return fmt.Errorf("features: capture table full for %s/%s", r.name, r.sys)
	}
	r.captures.Add(1)
	return nil
}

// CaptureFeatureIncr updates the feature at key by incrementing it
// (capture_feature_incr); values are treated as little-endian int64
// counters. Callable lock-free from any goroutine.
func (r *Registry) CaptureFeatureIncr(key string, delta int64) (int64, error) {
	f, err := r.field(key)
	if err != nil {
		return 0, err
	}
	if f.Size < 8 {
		return 0, fmt.Errorf("features: key %q has size %d, increments need 8", key, f.Size)
	}
	v, ok := r.current.add(key, delta)
	if !ok {
		return 0, fmt.Errorf("features: capture table full for %s/%s", r.name, r.sys)
	}
	r.incrs.Add(1)
	return v, nil
}

// CommitCapture commits the current feature values as a vector with end
// timestamp ts (commit_fv_capture). Fields with entries > 1 are populated
// by shifting the previous vector's history down one slot.
func (r *Registry) CommitCapture(ts time.Duration) Vector {
	r.mu.Lock()
	defer r.mu.Unlock()

	prev, havePrev := r.win.newest()
	v := Vector{TsBegin: r.tsBegin, TsEnd: ts, Values: make(map[string][]byte, len(r.schema))}
	for _, f := range r.schema {
		buf := make([]byte, f.Size*f.Entries)
		if cur, ok := r.current.load(f.Key); ok {
			copy(buf[:f.Size], cur)
		}
		if f.Entries > 1 && havePrev {
			if ph, ok := prev.Values[f.Key]; ok {
				copy(buf[f.Size:], ph[:f.Size*(f.Entries-1)])
			}
		}
		v.Values[f.Key] = buf
	}
	r.win.push(v)
	r.commits++
	return v
}

// GetFeatures batch-retrieves committed vectors (get_features): with
// NullTS, every vector in the window; otherwise all vectors with
// ts_end <= ts ("older than ts"). Vectors are returned oldest first.
func (r *Registry) GetFeatures(ts time.Duration) []Vector {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ts == NullTS {
		return r.win.snapshot()
	}
	var out []Vector
	for i := 0; i < r.win.n; i++ {
		v := r.win.at(i)
		if v.TsEnd <= ts {
			out = append(out, v)
		}
	}
	return out
}

// GetFeatureAt returns the first committed vector whose capture interval
// covers ts — §5.4's point query ("Querying the registry with a timestamp
// ts returns the first feature vector for which ts_begin <= ts <= ts_end").
func (r *Registry) GetFeatureAt(ts time.Duration) (Vector, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < r.win.n; i++ {
		v := r.win.at(i)
		if v.TsBegin <= ts && ts <= v.TsEnd {
			return v, true
		}
	}
	return Vector{}, false
}

// Truncate removes committed vectors older than ts (truncate_features);
// NullTS removes everything. When the schema keeps history entries, the
// most recent vector is always preserved so future commits can populate
// their history arrays (§5.4).
func (r *Registry) Truncate(ts time.Duration) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	keepLast := r.schema.hasHistory()
	dropped := 0
	for r.win.n > 0 {
		if keepLast && r.win.n == 1 {
			break
		}
		if ts != NullTS && r.win.at(0).TsEnd > ts {
			break
		}
		r.win.popOldest()
		dropped++
	}
	return dropped
}

// RegisterClassifier provides the inference function for one architecture
// (register_classifier).
func (r *Registry) RegisterClassifier(arch Arch, fn Classifier) error {
	if fn == nil {
		return errors.New("features: nil classifier")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.classifiers[arch] = fn
	return nil
}

// RegisterPolicy installs the contention/batching policy consulted by
// ScoreFeatures (register_policy).
func (r *Registry) RegisterPolicy(fn policy.Func) error {
	if fn == nil {
		return errors.New("features: nil policy")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pol = fn
	return nil
}

// ScoreFeatures runs inference on a batch (score_features). The registered
// policy picks the architecture (defaulting to CPU with no policy); if no
// classifier is registered for the chosen architecture, the CPU classifier
// is the fallback — the kernel always has a CPU path (§3).
func (r *Registry) ScoreFeatures(batch []Vector) ([]float32, Arch, error) {
	if len(batch) == 0 {
		return nil, ArchCPU, nil
	}
	r.mu.Lock()
	pol := r.pol
	cls := make(map[Arch]Classifier, len(r.classifiers))
	for a, c := range r.classifiers {
		cls[a] = c
	}
	r.mu.Unlock()

	arch := ArchCPU
	if pol != nil && pol(len(batch)) == policy.UseGPU {
		arch = ArchGPU
	}
	fn, ok := cls[arch]
	if !ok {
		arch = ArchCPU
		if fn, ok = cls[ArchCPU]; !ok {
			return nil, arch, fmt.Errorf("features: no classifier registered for %s/%s", r.name, r.sys)
		}
	}
	scores, err := fn(batch)
	if err != nil {
		return nil, arch, err
	}
	r.scored.Add(int64(len(batch)))
	if len(scores) != len(batch) {
		return nil, arch, fmt.Errorf("features: classifier returned %d scores for %d vectors",
			len(scores), len(batch))
	}
	return scores, arch, nil
}
