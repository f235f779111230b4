package features

import (
	"encoding/binary"
	"sync/atomic"
)

// captureTable holds a registry's in-flight feature values. It is the
// lock-free hash table §5.3 asks for ("The register relies on lock-free data
// structures to enable instrumentation calls on arbitrary kernel threads
// without needing additional locking disciplines"): a fixed-capacity
// open-addressing map from feature keys to immutable byte-slice values. Key
// slots are claimed with one CAS, value updates publish a fresh slice by
// atomic pointer swap, and increments retry a CAS loop over the encoded
// value. Fixed capacity fits because the schema declares every key up front.
type captureTable struct {
	mask  uint64
	slots []captureSlot
}

type captureSlot struct {
	key atomic.Pointer[string]
	val atomic.Pointer[[]byte]
}

// newCaptureTable returns a table for up to keys distinct keys, sized at
// twice that (rounded up to a power of two) to keep probe chains short.
func newCaptureTable(keys int) *captureTable {
	n := 2
	for n < keys*2 {
		n <<= 1
	}
	return &captureTable{mask: uint64(n - 1), slots: make([]captureSlot, n)}
}

// fnv1a matches hash/fnv but avoids the allocation of the hash.Hash object
// on the capture hot path.
func fnv1a(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// slot locates key's slot, claiming an empty one when insert is set. It
// returns nil when key is absent (and insert unset) or the table is full of
// other keys.
func (t *captureTable) slot(key string, insert bool) *captureSlot {
	h := fnv1a(key)
	for i := uint64(0); i <= t.mask; i++ {
		s := &t.slots[(h+i)&t.mask]
		k := s.key.Load()
		if k == nil {
			if !insert {
				return nil
			}
			kc := key // copy so the stored pointer does not alias caller memory
			if s.key.CompareAndSwap(nil, &kc) {
				return s
			}
			k = s.key.Load()
		}
		if *k == key {
			return s
		}
	}
	return nil
}

// store sets key to a copy of val. It reports false when the table is full.
func (t *captureTable) store(key string, val []byte) bool {
	s := t.slot(key, true)
	if s == nil {
		return false
	}
	v := make([]byte, len(val))
	copy(v, val)
	s.val.Store(&v)
	return true
}

// load returns the value for key. The returned slice must not be modified.
func (t *captureTable) load(key string) ([]byte, bool) {
	s := t.slot(key, false)
	if s == nil {
		return nil, false
	}
	v := s.val.Load()
	if v == nil {
		return nil, false
	}
	return *v, true
}

// add interprets the value for key as a little-endian int64, adds delta to
// it (missing values count as zero), and returns the new total. It reports
// false when the table is full. This implements capture_feature_incr.
func (t *captureTable) add(key string, delta int64) (int64, bool) {
	s := t.slot(key, true)
	if s == nil {
		return 0, false
	}
	for {
		old := s.val.Load()
		var cur int64
		if old != nil && len(*old) >= 8 {
			cur = int64(binary.LittleEndian.Uint64(*old))
		}
		next := cur + delta
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, uint64(next))
		if s.val.CompareAndSwap(old, &buf) {
			return next, true
		}
	}
}
