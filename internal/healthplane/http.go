package healthplane

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"lakego/internal/core"
	"lakego/internal/flightrec"
	"lakego/internal/remoting"
)

// Paths are the routes Handler serves; laked mounts each on its telemetry
// mux so the health plane and /metrics share one listener.
var Paths = []string{
	"/healthz",
	"/readyz",
	"/statusz",
	"/slo.json",
	"/incidents.json",
	"/flightrec.tail",
	"/flightrec.json",
	"/spans.json",
}

// Handler returns the plane's HTTP surface. Every GET is read-only and
// drives at most one Poll; nothing here touches the hot path.
func (p *Plane) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", p.handleHealthz)
	mux.HandleFunc("/readyz", p.handleReadyz)
	mux.HandleFunc("/statusz", p.handleStatusz)
	mux.HandleFunc("/slo.json", p.handleSLO)
	mux.HandleFunc("/incidents.json", p.handleIncidents)
	mux.HandleFunc("/flightrec.tail", p.handleTail)
	mux.HandleFunc("/flightrec.json", p.handleDump)
	mux.HandleFunc("/spans.json", p.handleSpans)
	return mux
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
	_, _ = w.Write([]byte("\n"))
}

// handleHealthz is pure liveness: the process answers, therefore 200.
func (p *Plane) handleHealthz(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, map[string]interface{}{
		"status":         "ok",
		"version":        core.BuildVersion,
		"uptime_vns":     p.UptimeVNS(),
		"uptime_seconds": p.UptimeSeconds(),
	})
}

// handleReadyz is serving-readiness: 503 unless every shard is Active with
// a daemon its supervisor has not given up.
func (p *Plane) handleReadyz(w http.ResponseWriter, req *http.Request) {
	ready, shards := p.Ready()
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, map[string]interface{}{"ready": ready, "shards": shards})
}

// handleStatusz is the human one-pager.
func (p *Plane) handleStatusz(w http.ResponseWriter, req *http.Request) {
	snap := p.SLO()
	ready, shards := p.Ready()
	p.mu.Lock()
	polls := p.polls
	skipped := p.tailSkipped
	incidents := len(p.incidents)
	p.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "lake health plane (version %s)\n", core.BuildVersion)
	fmt.Fprintf(w, "uptime: %d vns virtual, %ds wall; polls %d, tail skipped %d\n",
		p.UptimeVNS(), p.UptimeSeconds(), polls, skipped)
	fmt.Fprintf(w, "ready: %v (%d shards)\n", ready, len(shards))
	for _, sh := range shards {
		fmt.Fprintf(w, "  shard: %s ready=%v handled=%d\n", sh.State, sh.Ready, sh.Handled)
	}
	fmt.Fprintf(w, "objectives (windows %s/%s/%s):\n", windowSpec[0].name, windowSpec[1].name, windowSpec[2].name)
	for _, o := range snap.Objectives {
		alert := "ok"
		if o.InAlert {
			alert = "ALERT " + o.Severity
		}
		fmt.Fprintf(w, "  %-10s stage=%-11s target=%.4g budget=%dns %s", o.Name, o.Stage, o.Target, o.BudgetNS, alert)
		for _, ws := range o.Windows {
			fmt.Fprintf(w, "  [%s burn %.2f att %.4f]", ws.Name, ws.BurnRate, ws.Attainment)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "incidents retained: %d (see /incidents.json)\n", incidents)
}

func (p *Plane) handleSLO(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, p.SLO())
}

func (p *Plane) handleIncidents(w http.ResponseWriter, req *http.Request) {
	p.Poll()
	incs := p.Incidents()
	if incs == nil {
		incs = []*Incident{}
	}
	writeJSON(w, incs)
}

// handleTail serves /flightrec.tail?cursor=<opaque>&max=N: the events
// published since the cursor, the cursor to resume from, and the exact
// count the reader missed. Clients keep their own cursors — tailing never
// disturbs the plane's internal SLO cursor or other readers.
func (p *Plane) handleTail(w http.ResponseWriter, req *http.Request) {
	cur, err := flightrec.ParseTailCursor(req.URL.Query().Get("cursor"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	max := 0
	if s := req.URL.Query().Get("max"); s != "" {
		if max, err = strconv.Atoi(s); err != nil {
			http.Error(w, "bad max: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	events, next, skipped := p.rec.Tail(cur, max)
	type tailEvent struct {
		VTimeNS int64  `json:"vtime_ns"`
		Wall    int64  `json:"wall_unix_ns"`
		Domain  string `json:"domain"`
		Kind    string `json:"kind"`
		TraceID uint64 `json:"trace_id,omitempty"`
		Seq     uint64 `json:"seq,omitempty"`
		Shard   uint16 `json:"shard,omitempty"`
		Device  uint16 `json:"device,omitempty"`
		Arg0    uint64 `json:"a0,omitempty"`
		Arg1    uint64 `json:"a1,omitempty"`
		Arg2    uint64 `json:"a2,omitempty"`
	}
	out := struct {
		Cursor  string      `json:"cursor"`
		Skipped uint64      `json:"skipped"`
		Events  []tailEvent `json:"events"`
	}{Cursor: next.String(), Skipped: skipped, Events: make([]tailEvent, 0, len(events))}
	for _, e := range events {
		out.Events = append(out.Events, tailEvent{
			VTimeNS: int64(e.VTime), Wall: e.Wall,
			Domain: e.Domain.String(), Kind: e.Kind.String(),
			TraceID: e.TraceID, Seq: e.Seq, Shard: e.Shard, Device: e.Device,
			Arg0: e.Arg0, Arg1: e.Arg1, Arg2: e.Arg2,
		})
	}
	writeJSON(w, out)
}

// handleDump serves /flightrec.json. The default is an on-demand
// Snapshot("http") — always 200, no crash required; ?last=true (or any
// value strconv.ParseBool reads as true) returns the retained automatic
// dump, 404 until one has fired. A last it cannot parse is a 400.
func (p *Plane) handleDump(w http.ResponseWriter, req *http.Request) {
	last := false
	if s := req.URL.Query().Get("last"); s != "" {
		var err error
		if last, err = strconv.ParseBool(s); err != nil {
			http.Error(w, "bad last: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	dump := p.rec.LastDump()
	if !last {
		dump = p.rec.Snapshot("http")
	} else if dump == nil {
		http.Error(w, "no automatic dump recorded", http.StatusNotFound)
		return
	}
	b, err := dump.JSON()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
}

// handleSpans serves /spans.json: the recorder's surviving events stitched
// into one span per completed remoted call (flightrec.Spans).
func (p *Plane) handleSpans(w http.ResponseWriter, req *http.Request) {
	apiName := func(id uint64) string { return remoting.APIID(id).String() }
	writeJSON(w, flightrec.Spans(flightrec.Stitch(p.rec.Snapshot("http")).Timelines, apiName))
}
