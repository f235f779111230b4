package healthplane

import (
	"time"

	"lakego/internal/flightrec"
	"lakego/internal/telemetry"
)

// Incident is one black-box capture: everything an operator needs to
// diagnose the anomaly after the fact, bundled at the moment it tripped.
type Incident struct {
	ID      int    `json:"id"`
	Trigger string `json:"trigger"` // fast-burn, slow-burn, drift-demotion
	Detail  string `json:"detail"`
	// Objective names the breached objective for burn triggers.
	Objective string        `json:"objective,omitempty"`
	VTime     time.Duration `json:"vtime_ns"`
	Wall      int64         `json:"wall_unix_ns"`
	// Dump is the flight-recorder black box at capture time.
	Dump *flightrec.Dump `json:"dump"`
	// Telemetry is the metrics snapshot at capture time.
	Telemetry telemetry.Snapshot `json:"telemetry"`
	// SLO is the burn/percentile state that (for burn triggers) tripped.
	SLO *SLOSnapshot `json:"slo"`
}

// captureLocked bundles an incident and retains it in the bounded ring.
// The caller holds p.mu.
func (p *Plane) captureLocked(trigger, detail, objective string) *Incident {
	p.incidentSeq++
	now := p.now()
	inc := &Incident{
		ID:        p.incidentSeq,
		Trigger:   trigger,
		Detail:    detail,
		Objective: objective,
		VTime:     now,
		Wall:      time.Now().UnixNano(),
		SLO:       p.sloLocked(int64(now / tickLen)),
		Dump:      p.rec.TriggerDump("healthplane: " + trigger + ": " + detail),
		Telemetry: p.snapFn(),
	}
	p.incidents = append(p.incidents, inc)
	if len(p.incidents) > maxIncidents {
		p.incidents = p.incidents[len(p.incidents)-maxIncidents:]
	}
	return inc
}

// Incidents returns the retained ring, oldest first.
func (p *Plane) Incidents() []*Incident {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Incident, len(p.incidents))
	copy(out, p.incidents)
	return out
}
