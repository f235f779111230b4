// Command lakeload is the macro load generator: an open-loop,
// trace-driven replay of a huge churning client population against a full
// fleet runtime on the virtual clock, with SLO gating and knee-point
// location (see internal/loadgen for the model).
//
// Usage:
//
//	lakeload -list                     enumerate builtin scenarios
//	lakeload -scenario smoke           replay a builtin
//	lakeload -scenario storm.json      replay a scenario file
//	lakeload -scenario smoke -sweep 0.5,1,2,4,8
//	                                   knee sweep over rate multipliers
//	lakeload -scenario smoke -out results.json
//	                                   also write the results JSON
//	lakeload -scenario smoke -canon    print the validated scenario's
//	                                   canonical JSON and exit
//	lakeload -scenario smoke -live-slo attach a health plane to each
//	                                   replay, poll /slo.json over HTTP
//	                                   during the drive, and print the
//	                                   live vs driver attainment divergence
//
// Everything in the replay runs on the virtual clock, so a fixed-seed
// scenario produces byte-identical results JSON run over run, with or
// without -live-slo: CI compares the smoke scenario's knee sweep byte for
// byte with testdata/results.golden, so any change to a count, latency, SLO
// attainment or stage mean fails it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	lake "lakego"
	"lakego/internal/loadgen"
)

// loadScenario resolves -scenario: a builtin name first, else a file.
func loadScenario(arg string) (*loadgen.Scenario, error) {
	if s, err := loadgen.BuiltinByName(arg); err == nil {
		return s, nil
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return nil, fmt.Errorf("lakeload: %q is neither a builtin scenario nor a readable file: %w", arg, err)
	}
	return loadgen.ParseScenario(data)
}

// parseSweep parses the -sweep ladder.
func parseSweep(arg string) ([]float64, error) {
	var ms []float64
	for _, part := range strings.Split(arg, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		m, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("lakeload: bad -sweep multiplier %q: %w", part, err)
		}
		ms = append(ms, m)
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("lakeload: -sweep needs at least one multiplier")
	}
	return ms, nil
}

// liveSLO aggregates -live-slo rows across the base run and sweep rungs:
// each replay gets a health plane served over loopback HTTP, polled at
// every virtual millisecond the way an operator's dashboard would scrape
// /slo.json, and the table at the end compares the plane's live view with
// the driver's omniscient per-arrival accounting.
type liveSLO struct {
	budget time.Duration // call-latency budget: the widest class p99 SLO

	mu   sync.Mutex
	rows []liveSLORow
}

type liveSLORow struct {
	multiplier float64
	driver     float64 // driver-side attainment over all arrivals
	live       float64 // plane-side call attainment, widest window (NaN: no traffic seen)
	polls      int
	incidents  int
}

// observer boots a health plane over one rung's fleet and serves it on a
// fresh loopback listener; the returned RunObserver polls it live.
func (ls *liveSLO) observer(f *lake.Fleet) loadgen.RunObserver {
	plane := lake.NewFleetHealthPlane(f, lake.HealthPlaneConfig{
		// Replays span virtual milliseconds, not wall minutes: shrink the
		// tick so the burn windows resolve inside the run.
		Tick:       time.Millisecond,
		ShortTicks: 5,
		LongTicks:  3600,
		Objectives: []lake.SLOObjective{{Name: "calls", Stage: "call", Budget: ls.budget, Target: 0.99}},
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "lakeload: -live-slo listener: %v\n", err)
		return nil
	}
	srv := &http.Server{Handler: plane.Handler()}
	go func() { _ = srv.Serve(lis) }()
	return &liveSLOObserver{ls: ls, srv: srv, url: "http://" + lis.Addr().String()}
}

type liveSLOObserver struct {
	ls    *liveSLO
	srv   *http.Server
	url   string
	polls int
	last  lake.SLOSnapshot
	got   bool
}

// Tick scrapes /slo.json over real HTTP — the plane's handlers, transport
// and JSON shape are all on the measured path, not a shortcut into the
// plane's internals.
func (o *liveSLOObserver) Tick(at time.Duration) {
	resp, err := http.Get(o.url + "/slo.json")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var snap lake.SLOSnapshot
	if json.NewDecoder(resp.Body).Decode(&snap) == nil {
		o.last, o.got = snap, true
		o.polls++
	}
}

func (o *liveSLOObserver) Done(r *loadgen.Result) {
	o.Tick(0) // final scrape picks up the drained tail
	_ = o.srv.Close()
	live := math.NaN()
	incidents := 0
	if o.got {
		incidents = o.last.Incidents
		for _, ob := range o.last.Objectives {
			if ob.Name != "calls" || len(ob.Windows) == 0 {
				continue
			}
			if w := ob.Windows[len(ob.Windows)-1]; w.Good+w.Bad > 0 {
				live = w.Attainment
			}
		}
	}
	o.ls.mu.Lock()
	o.ls.rows = append(o.ls.rows, liveSLORow{
		multiplier: r.Scenario.RateMultiplier,
		driver:     r.Attainment,
		live:       live,
		polls:      o.polls,
		incidents:  incidents,
	})
	o.ls.mu.Unlock()
}

// summary renders the live-vs-driver attainment divergence table.
func (ls *liveSLO) summary() string {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	out := fmt.Sprintf("live SLO (health plane polled per virtual ms, call budget %v):\n", ls.budget)
	out += fmt.Sprintf("  %10s %12s %12s %12s %6s %10s\n",
		"multiplier", "driver_att", "live_att", "divergence", "polls", "incidents")
	for _, row := range ls.rows {
		liveCol, divCol := "n/a", "n/a"
		if !math.IsNaN(row.live) {
			liveCol = fmt.Sprintf("%.3f%%", 100*row.live)
			divCol = fmt.Sprintf("%+.3f%%", 100*(row.driver-row.live))
		}
		out += fmt.Sprintf("  %10.3g %11.3f%% %12s %12s %6d %10d\n",
			row.multiplier, 100*row.driver, liveCol, divCol, row.polls, row.incidents)
	}
	out += "  divergence = driver-side attainment (all arrivals vs class SLOs) minus the\n" +
		"  plane's live call attainment; large gaps mean sheds or queueing the call\n" +
		"  histogram cannot see.\n"
	return out
}

// run is main minus the exit, so tests can drive the whole CLI path.
func run(scenarioArg, sweepArg, outPath, note string, seed int64, multiplier float64, canon, liveSLOFlag bool) error {
	s, err := loadScenario(scenarioArg)
	if err != nil {
		return err
	}
	if seed != 0 {
		s.Seed = seed
		s.RouterSeed = 0 // re-derive from the new seed
	}
	if multiplier != 0 {
		if err := s.Validate(); err != nil {
			return err
		}
		s.RateMultiplier *= multiplier
	}
	if canon {
		if err := s.Validate(); err != nil {
			return err
		}
		data, err := s.Canon()
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}

	var agg *liveSLO
	if liveSLOFlag {
		budget := 5 * time.Millisecond
		for _, c := range s.Tenants {
			if b := time.Duration(c.SLOp99US * float64(time.Microsecond)); b > budget {
				budget = b
			}
		}
		agg = &liveSLO{budget: budget}
		s.Observer = agg.observer
	}

	result, err := loadgen.Run(s)
	if err != nil {
		return err
	}
	fmt.Print(result.Summary())

	var sweep *loadgen.SweepResult
	if sweepArg != "" {
		ms, err := parseSweep(sweepArg)
		if err != nil {
			return err
		}
		if sweep, err = loadgen.Sweep(s, ms); err != nil {
			return err
		}
		fmt.Print(sweep.Summary())
	}

	if agg != nil {
		fmt.Print(agg.summary())
	}

	if outPath != "" {
		if note == "" {
			note = fmt.Sprintf("generated by lakeload -scenario %s: open-loop macro replay, virtual-clock deterministic", s.Name)
		}
		data, err := loadgen.BenchJSON(note, []*loadgen.Result{result}, sweep)
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("lakeload: wrote results to %s\n", outPath)
	}
	return nil
}

func main() {
	list := flag.Bool("list", false, "list builtin scenarios and exit")
	scenario := flag.String("scenario", "smoke", "builtin scenario name or path to a scenario JSON file")
	sweepArg := flag.String("sweep", "", "comma-separated rate multipliers for a knee sweep (e.g. 0.5,1,2,4,8)")
	out := flag.String("out", "", "write the results JSON to this file")
	note := flag.String("note", "", "note field for the results JSON")
	seed := flag.Int64("seed", 0, "override the scenario seed (0 keeps the scenario's)")
	multiplier := flag.Float64("multiplier", 0, "scale the scenario's offered rate (0 keeps it)")
	canon := flag.Bool("canon", false, "print the validated scenario's canonical JSON and exit")
	liveSLOFlag := flag.Bool("live-slo", false, "attach a health plane to each replay, poll /slo.json live, and print live-vs-driver attainment divergence")
	flag.Parse()

	if *list {
		for _, s := range loadgen.Builtins() {
			fmt.Printf("%-10s %8d clients %6.0fms %d shards, %d tenant classes\n",
				s.Name, s.Clients, s.DurationMS, max(s.Shards, 1), len(s.Tenants))
		}
		return
	}
	if err := run(*scenario, *sweepArg, *out, *note, *seed, *multiplier, *canon, *liveSLOFlag); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
