package features

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestCaptureTableStoreLoad(t *testing.T) {
	m := newCaptureTable(8)
	if !m.store("lat", []byte{1, 2, 3}) {
		t.Fatal("store failed")
	}
	got, ok := m.load("lat")
	if !ok || len(got) != 3 || got[0] != 1 {
		t.Fatalf("load = %v, %v; want [1 2 3], true", got, ok)
	}
}

func TestCaptureTableLoadMissing(t *testing.T) {
	if _, ok := newCaptureTable(8).load("nope"); ok {
		t.Fatal("load of a missing key reported ok")
	}
}

func TestCaptureTableStoreCopiesValue(t *testing.T) {
	m := newCaptureTable(4)
	src := []byte{9}
	m.store("k", src)
	src[0] = 0
	if got, _ := m.load("k"); got[0] != 9 {
		t.Fatal("store aliased caller memory")
	}
}

func TestCaptureTableOverwrite(t *testing.T) {
	m := newCaptureTable(4)
	m.store("k", []byte{1})
	m.store("k", []byte{2})
	if got, _ := m.load("k"); got[0] != 2 {
		t.Fatalf("load = %v, want [2]", got)
	}
}

func TestCaptureTableAddFromZero(t *testing.T) {
	m := newCaptureTable(4)
	v, ok := m.add("pend_ios", 1)
	if !ok || v != 1 {
		t.Fatalf("add = %d, %v; want 1, true", v, ok)
	}
	if v, _ = m.add("pend_ios", -3); v != -2 {
		t.Fatalf("add = %d, want -2", v)
	}
	raw, _ := m.load("pend_ios")
	if got := int64(binary.LittleEndian.Uint64(raw)); got != -2 {
		t.Fatalf("stored value = %d, want -2", got)
	}
}

func TestCaptureTableFull(t *testing.T) {
	m := newCaptureTable(1) // two slots
	m.store("a", nil)
	m.store("b", nil)
	if m.store("c", []byte{1}) {
		t.Fatal("store succeeded on a full table")
	}
	if _, ok := m.add("d", 1); ok {
		t.Fatal("add succeeded on a full table")
	}
}

// Concurrent increments from many goroutines must sum exactly: this is the
// capture_feature_incr path from Listing 4/5 of the paper (I/O issue and
// completion racing on pend_ios).
func TestCaptureTableConcurrentAddExact(t *testing.T) {
	m := newCaptureTable(4)
	const workers, per = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			delta := int64(1 - 2*(w%2))
			for i := 0; i < per; i++ {
				m.add("pend_ios", delta)
			}
		}(w)
	}
	wg.Wait()
	raw, _ := m.load("pend_ios")
	if got := int64(binary.LittleEndian.Uint64(raw)); got != 0 {
		t.Fatalf("final counter = %d, want 0", got)
	}
}

// Concurrent inserts of distinct keys must each land exactly once.
func TestCaptureTableConcurrentDistinctInserts(t *testing.T) {
	const n = 64
	m := newCaptureTable(n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m.store(fmt.Sprintf("key-%d", i), []byte{byte(i)})
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		v, ok := m.load(fmt.Sprintf("key-%d", i))
		if !ok || v[0] != byte(i) {
			t.Fatalf("key-%d = %v, %v", i, v, ok)
		}
	}
}

// Property: the table agrees with a plain Go map under sequential operation.
func TestCaptureTableQuickAgreesWithMap(t *testing.T) {
	type op struct {
		Key   uint8
		Val   uint8
		IsAdd bool
	}
	f := func(ops []op) bool {
		m := newCaptureTable(256)
		ref := map[string]int64{}
		refSet := map[string][]byte{}
		for _, o := range ops {
			k := fmt.Sprintf("k%d", o.Key%16)
			if o.IsAdd {
				got, ok := m.add(k, int64(o.Val))
				ref[k] += int64(o.Val)
				delete(refSet, k)
				if !ok || got != ref[k] {
					return false
				}
			} else {
				m.store(k, []byte{o.Val})
				refSet[k] = []byte{o.Val}
				ref[k] = 0
			}
		}
		for k, v := range refSet {
			got, ok := m.load(k)
			if !ok || got[0] != v[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
