package flightrec

import (
	"encoding/json"
	"fmt"
	"time"
)

// Dump is a flight-recorder snapshot: the crash artifact. It has one
// encoding, JSON — the laked /flightrec.json endpoint, incident bundles and
// CI artifacts all carry it, and ReadDump parses it back.
type Dump struct {
	Version int           `json:"version"`
	Reason  string        `json:"reason"`
	VNow    time.Duration `json:"v_now_ns"`
	WallNow int64         `json:"wall_now_ns"`
	Domains []DomainDump  `json:"domains"`
}

// DomainDump is one domain's surviving events plus its explicit loss count.
type DomainDump struct {
	Domain  Domain  `json:"domain"`
	Name    string  `json:"name"`
	Dropped uint64  `json:"dropped"`
	Events  []Event `json:"events"`
}

// TotalEvents counts events across domains.
func (d *Dump) TotalEvents() int {
	n := 0
	for _, dd := range d.Domains {
		n += len(dd.Events)
	}
	return n
}

// TotalDropped totals the per-domain loss counts.
func (d *Dump) TotalDropped() uint64 {
	var n uint64
	for _, dd := range d.Domains {
		n += dd.Dropped
	}
	return n
}

// dumpVersion 2: batch members link to their flush by seq range; kinds renumbered.
const dumpVersion = 2

// JSON serializes the dump as indented JSON.
func (d *Dump) JSON() ([]byte, error) {
	return json.MarshalIndent(d, "", " ")
}

// ReadDump parses a JSON dump, rejecting a version or a domain ordinal this
// build does not know.
func ReadDump(data []byte) (*Dump, error) {
	d := new(Dump)
	if err := json.Unmarshal(data, d); err != nil {
		return nil, fmt.Errorf("flightrec: not a flight-recorder dump: %w", err)
	}
	if d.Version != dumpVersion {
		return nil, fmt.Errorf("flightrec: unsupported dump version %d", d.Version)
	}
	for _, dd := range d.Domains {
		if dd.Domain >= numDomains {
			return nil, fmt.Errorf("flightrec: dump names unknown domain %d", dd.Domain)
		}
	}
	return d, nil
}
