package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval around a public call the driver makes into the
// program. Times are nanoseconds since the tracer started; Parent is the
// index of the enclosing span (-1 at top level); Req groups the spans of one
// driver operation.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    uint64 `json:"req"`
}

// tracer keeps spans in memory; they are written out when the workload
// ends. All methods are no-ops on a nil tracer, which is how the untraced
// rounds run the same driver code with tracing off.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32 // stack of open span indexes
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string, req uint64) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req})
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("benchmark: span ended out of order")
	}
	t.spans[id].End = now
	t.open = t.open[:len(t.open)-1]
}

// rename relabels a closed span, used to split calls that performed a
// batcher flush from calls that did not.
func (t *tracer) rename(id int32, name string) {
	if t != nil {
		t.spans[id].Name = name
	}
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	Count int64 `json:"count"`
	Total int64 `json:"total_ns"`
	Self  int64 `json:"self_ns"` // total minus the part child spans cover
	P50   int64 `json:"p50_ns"`
	P99   int64 `json:"p99_ns"`
}

// summarize folds spans into per-name statistics. A span's self time is its
// duration minus the summed durations of its direct children (children never
// overlap: the driver is one goroutine).
func summarize(spans []span) map[string]*spanStats {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*spanStats{}
	durs := map[string][]int64{}
	for i, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.Total += d
		st.Self += d - child[i]
		durs[s.Name] = append(durs[s.Name], d)
	}
	for name, st := range out {
		sorted := sortedCopy(durs[name])
		st.P50, st.P99 = percentile(sorted, 0.50), percentile(sorted, 0.99)
	}
	return out
}

// traceFileSpans caps the spans written to a trace file: a traced pass makes
// up to ~2 M spans, and the first 100 000 already show every span shape.
// The summary in the file covers all of them.
const traceFileSpans = 100_000

type traceFile struct {
	Workload   string                `json:"workload"`
	Seed       int64                 `json:"seed"`
	TotalSpans int                   `json:"total_spans"`
	Summary    map[string]*spanStats `json:"summary"`
	Spans      []span                `json:"spans"`
}

func writeTrace(path, workload string, seed int64, spans []span, summary map[string]*spanStats) error {
	tf := traceFile{Workload: workload, Seed: seed, TotalSpans: len(spans), Summary: summary, Spans: spans}
	if len(tf.Spans) > traceFileSpans {
		tf.Spans = tf.Spans[:traceFileSpans]
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
