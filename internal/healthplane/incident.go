package healthplane

import (
	"time"

	"lakego/internal/flightrec"
	"lakego/internal/lifecycle"
	"lakego/internal/telemetry"
)

// ModelVersionState is one registry version inside an incident bundle,
// mirroring laked's /models.json shape so offline tooling reads both.
type ModelVersionState struct {
	Seq     uint64 `json:"seq"`
	Hash    string `json:"hash"`
	Note    string `json:"note"`
	Samples int    `json:"samples"`
	Parent  uint64 `json:"parent,omitempty"`
	Serving bool   `json:"serving,omitempty"`
}

// ModelRegistryState is one model's full registry inside a bundle.
type ModelRegistryState struct {
	Model    string              `json:"model"`
	Stats    lifecycle.Stats     `json:"stats"`
	Versions []ModelVersionState `json:"versions"`
}

// Incident is one black-box capture: everything an operator needs to
// diagnose the anomaly after the fact, bundled at the moment it tripped.
type Incident struct {
	ID      int    `json:"id"`
	Trigger string `json:"trigger"` // fast-burn, slow-burn, watchdog-stall, drift-demotion
	Detail  string `json:"detail"`
	// Objective names the breached objective for burn triggers.
	Objective string        `json:"objective,omitempty"`
	VTime     time.Duration `json:"vtime_ns"`
	Wall      int64         `json:"wall_unix_ns"`
	// Dump is the flight-recorder black box at capture time.
	Dump *flightrec.Dump `json:"dump"`
	// Telemetry is the merged metrics snapshot at capture time.
	Telemetry telemetry.Snapshot `json:"telemetry"`
	// Models is the registry state of every attached lifecycle manager.
	Models []ModelRegistryState `json:"models,omitempty"`
	// SLO is the burn/percentile state that (for burn triggers) tripped.
	SLO *SLOSnapshot `json:"slo"`
}

// captureLocked bundles an incident and retains it in the bounded ring.
// The caller holds p.mu.
func (p *Plane) captureLocked(trigger, detail, objective string) *Incident {
	p.incidentSeq++
	inc := &Incident{
		ID:        p.incidentSeq,
		Trigger:   trigger,
		Detail:    detail,
		Objective: objective,
		VTime:     p.vnow(),
		Wall:      time.Now().UnixNano(),
		SLO:       p.sloLocked(int64(p.vnow() / p.cfg.Tick)),
	}
	if p.rec != nil {
		inc.Dump = p.rec.TriggerDump("healthplane: " + trigger + ": " + detail)
	}
	if p.snapFn != nil {
		inc.Telemetry = p.snapFn()
	}
	inc.Models = p.registryStateLocked()
	p.incidents = append(p.incidents, inc)
	if len(p.incidents) > maxIncidents {
		p.incidents = p.incidents[len(p.incidents)-maxIncidents:]
	}
	return inc
}

// registryStateLocked snapshots every attached model registry.
func (p *Plane) registryStateLocked() []ModelRegistryState {
	var out []ModelRegistryState
	for _, m := range p.models {
		serving := m.Serving()
		rs := ModelRegistryState{Model: m.Model(), Stats: m.Stats()}
		for _, v := range m.Registry().Versions() {
			rs.Versions = append(rs.Versions, ModelVersionState{
				Seq:     v.Seq,
				Hash:    hashHex(v.Hash),
				Note:    v.Meta.Note,
				Samples: v.Meta.Samples,
				Parent:  v.Meta.ParentSeq,
				Serving: v == serving,
			})
		}
		out = append(out, rs)
	}
	return out
}

func hashHex(h uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[h&0xf]
		h >>= 4
	}
	return string(b[:])
}

// Incidents returns the retained ring, oldest first.
func (p *Plane) Incidents() []*Incident {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Incident, len(p.incidents))
	copy(out, p.incidents)
	return out
}
