package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// HistogramSnapshot is the exported shape of one histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P99   int64   `json:"p99"`
	// Buckets maps each finite upper bound to the cumulative count of
	// observations <= that bound; Inf is the total.
	Buckets []BucketSnapshot `json:"buckets"`
}

// BucketSnapshot is one cumulative histogram bucket.
type BucketSnapshot struct {
	LE         string `json:"le"` // decimal bound, or "+Inf"
	Cumulative int64  `json:"cumulative"`
}

// Snapshot is a point-in-time JSON-friendly view of the registry. Values
// are read without stopping writers, so a snapshot taken under load is
// internally consistent per instrument but not across instruments.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every registered instrument (zero-value for nil).
func (r *Registry) Snapshot() Snapshot { return MergedSnapshot(r) }

func snapshotHistogram(h *Histogram) HistogramSnapshot {
	bounds, cum := h.bucketCounts()
	hs := HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
	}
	for i, b := range bounds {
		hs.Buckets = append(hs.Buckets, BucketSnapshot{LE: fmt.Sprintf("%d", b), Cumulative: cum[i]})
	}
	hs.Buckets = append(hs.Buckets, BucketSnapshot{LE: "+Inf", Cumulative: cum[len(cum)-1]})
	return hs
}

// JSON exports the snapshot with stable formatting.
func (r *Registry) JSON() ([]byte, error) {
	return json.MarshalIndent(r.Snapshot(), "", "  ")
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format. Series of one family are grouped under a single # HELP/# TYPE
// header; histograms expand to _bucket{le=...}, _sum and _count series.
func (r *Registry) WritePrometheus(w io.Writer) error { return WriteMergedPrometheus(w, r) }

func writePrometheus(w io.Writer, names []string, metrics map[string]interface{}, help map[string]string) error {
	var b strings.Builder
	lastFamily := ""
	for _, name := range sortedByFamily(names) {
		family, labels := SplitName(name)
		if family != lastFamily {
			if h := help[name]; h != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", family, h)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", family, promType(metrics[name]))
			lastFamily = family
		}
		switch m := metrics[name].(type) {
		case *Counter:
			fmt.Fprintf(&b, "%s%s %d\n", family, labels, m.Value())
		case *Gauge:
			fmt.Fprintf(&b, "%s%s %d\n", family, labels, m.Value())
		case *Histogram:
			writePromHistogram(&b, family, labels, m)
		case *GaugeFunc:
			fmt.Fprintf(&b, "%s%s %d\n", family, labels, m.Value())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// PrometheusText renders the exposition as a string.
func (r *Registry) PrometheusText() string {
	var b strings.Builder
	r.WritePrometheus(&b) //nolint:errcheck // strings.Builder cannot fail
	return b.String()
}

// WriteMergedPrometheus renders several registries as one exposition, the
// fleet case: each shard runtime owns a private registry whose series carry
// a shard label, and the fleet endpoint serves their union. Names must be
// disjoint across registries (the shard label guarantees it); on a
// collision the first registration wins, matching get-or-create semantics
// within one registry. Nil registries are skipped.
func WriteMergedPrometheus(w io.Writer, regs ...*Registry) error {
	names, metrics, help := mergeRegistries(regs)
	return writePrometheus(w, names, metrics, help)
}

// MergedPrometheusText renders the merged exposition as a string.
func MergedPrometheusText(regs ...*Registry) string {
	var b strings.Builder
	WriteMergedPrometheus(&b, regs...) //nolint:errcheck // strings.Builder cannot fail
	return b.String()
}

// MergedSnapshot captures the union of several registries as one Snapshot,
// with the same first-wins collision rule as WriteMergedPrometheus.
func MergedSnapshot(regs ...*Registry) Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	names, metrics, _ := mergeRegistries(regs)
	for _, name := range names {
		switch m := metrics[name].(type) {
		case *Counter:
			snap.Counters[name] = m.Value()
		case *Gauge:
			snap.Gauges[name] = m.Value()
		case *Histogram:
			snap.Histograms[name] = snapshotHistogram(m)
		case *GaugeFunc:
			snap.Gauges[name] = m.Value()
		}
	}
	return snap
}

// mergeRegistries snapshots each registry in turn and unions the results,
// keeping the first registration of a name.
func mergeRegistries(regs []*Registry) ([]string, map[string]interface{}, map[string]string) {
	var names []string
	metrics := map[string]interface{}{}
	help := map[string]string{}
	for _, r := range regs {
		if r == nil {
			continue
		}
		r.mu.Lock()
		rn, rm, rh := r.snapshotLocked()
		r.mu.Unlock()
		for _, name := range rn {
			if _, ok := metrics[name]; ok {
				continue
			}
			names = append(names, name)
			metrics[name] = rm[name]
			help[name] = rh[name]
		}
	}
	return names, metrics, help
}

func promType(m interface{}) string {
	switch m.(type) {
	case *Counter:
		return "counter"
	case *Gauge, *GaugeFunc:
		return "gauge"
	case *Histogram:
		return "histogram"
	}
	return "untyped"
}

// writePromHistogram emits the cumulative bucket series. Extra labels from
// the metric name are merged with the le label.
func writePromHistogram(b *strings.Builder, family, labels string, h *Histogram) {
	bounds, cum := h.bucketCounts()
	for i, bound := range bounds {
		fmt.Fprintf(b, "%s_bucket%s %d\n", family, mergeLabels(labels, fmt.Sprintf(`le="%d"`, bound)), cum[i])
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", family, mergeLabels(labels, `le="+Inf"`), cum[len(cum)-1])
	fmt.Fprintf(b, "%s_sum%s %d\n", family, labels, h.Sum())
	fmt.Fprintf(b, "%s_count%s %d\n", family, labels, h.Count())
}

// mergeLabels combines an existing `{a="b"}` label part with one more pair.
func mergeLabels(labels, pair string) string {
	if labels == "" {
		return "{" + pair + "}"
	}
	return strings.TrimSuffix(labels, "}") + "," + pair + "}"
}
