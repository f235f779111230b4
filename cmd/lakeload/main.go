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
//
// Everything in the replay runs on the virtual clock, so a fixed-seed
// scenario produces byte-identical results JSON run over run: CI compares
// the smoke scenario's knee sweep byte for byte with testdata/results.golden,
// so any change to a count, latency, SLO attainment or stage mean fails it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

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

// run is main minus the exit, so tests can drive the whole CLI path.
func run(scenarioArg, sweepArg, outPath, note string, seed int64, multiplier float64, canon bool) error {
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
	flag.Parse()

	if *list {
		for _, s := range loadgen.Builtins() {
			fmt.Printf("%-10s %8d clients %6.0fms %d shards, %d tenant classes\n",
				s.Name, s.Clients, s.DurationMS, max(s.Shards, 1), len(s.Tenants))
		}
		return
	}
	if err := run(*scenario, *sweepArg, *out, *note, *seed, *multiplier, *canon); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
