// Command laketrace analyzes LAKE flight-recorder dumps: the execution
// traces the always-on internal/flightrec rings capture across the
// kernel/user boundary. (Synthetic block-I/O *workload* traces are
// cmd/tracegen's job; laketrace reads what the stack actually did.)
//
// It stitches each remoted call's events back into one cross-domain
// timeline — client serialize → boundary crossing → daemon queue → exec →
// copy → response — keyed by the trace ID the wire protocol carries, then
// reports where the microseconds went:
//
//	laketrace dump.json                     # per-API stage breakdown (Fig 5/6 shape)
//	laketrace -tail 0.99 dump.json          # which stage dominates the p99
//	laketrace -chrome trace.json dump.json  # Chrome trace_event JSON for Perfetto
//	laketrace -calls dump.json              # per-call timeline listing
//
// Dumps come from laked's /flightrec.json endpoint, from automatic
// supervisor/crash triggers, or from test-failure artifacts.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"lakego/internal/flightrec"
	"lakego/internal/remoting"
)

func apiName(id uint64) string { return remoting.APIID(id).String() }

// routerSummary reports fleet routing activity when the dump carries any:
// placements and re-routes (the hops routed requests' enqueues carry, or
// router-domain route events in older dumps), each completed migration, and
// how the stitched calls spread across shards. Single-shard dumps route
// nothing and print nothing.
func routerSummary(w io.Writer, d *flightrec.Dump, res *flightrec.StitchResult) {
	var placements, reroutes int
	var migrations []flightrec.Event
	for _, dd := range d.Domains {
		for _, e := range dd.Events {
			if r, ok := e.Route(); ok {
				placements++
				if r.Reroute {
					reroutes++
				}
			} else if e.Kind == flightrec.EvMigrateEnd {
				migrations = append(migrations, e)
			}
		}
	}
	if placements == 0 && len(migrations) == 0 {
		return
	}
	perShard := make(map[int]int)
	maxShard := 0
	for _, t := range res.Timelines {
		perShard[t.Shard]++
		if t.Shard > maxShard {
			maxShard = t.Shard
		}
	}
	spread := ""
	for s := 0; s <= maxShard; s++ {
		spread += fmt.Sprintf(" %d:%d", s, perShard[s])
	}
	fmt.Fprintf(w, "router: %d placements (%d re-routed), %d migrations; calls per shard:%s\n",
		placements, reroutes, len(migrations), spread)
	for _, e := range migrations {
		fmt.Fprintf(w, "  migration: shard %d retired\n", e.Arg0)
	}
}

// run is the testable entry point; returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("laketrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	breakdown := fs.Bool("breakdown", true, "print the per-API stage breakdown table")
	tail := fs.Float64("tail", 0, "attribute tail latency at this quantile (e.g. 0.99); 0 disables")
	chrome := fs.String("chrome", "", "write Chrome trace_event JSON (Perfetto) to this file")
	calls := fs.Bool("calls", false, "list every stitched call timeline")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: laketrace [-breakdown] [-tail q] [-chrome out.json] [-calls] <dump>")
		return 2
	}
	var data []byte
	var err error
	if fs.Arg(0) == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(fs.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(stderr, "laketrace:", err)
		return 2
	}
	dump, err := flightrec.ReadDump(data)
	if err != nil {
		fmt.Fprintln(stderr, "laketrace:", err)
		return 2
	}
	res := flightrec.Stitch(dump)

	fmt.Fprintf(stdout, "dump %q at v=%v: %d events across %d domains, %d dropped\n",
		dump.Reason, dump.VNow, dump.TotalEvents(), len(dump.Domains), res.Dropped)
	fmt.Fprintf(stdout, "%d calls stitched: %d completed, %d with the full cross-domain chain\n",
		len(res.Timelines), res.Completed, res.Complete)
	routerSummary(stdout, dump, res)

	if *breakdown {
		fmt.Fprint(stdout, "\n", flightrec.BreakdownTable(res.Timelines, apiName))
	}
	if *tail > 0 {
		fmt.Fprint(stdout, "\n", flightrec.TailAttribution(res.Timelines, *tail, apiName))
	}
	if *calls {
		fmt.Fprintf(stdout, "\n%-10s %-24s %8s %5s %10s %8s %s\n", "trace", "api", "seq", "shard", "total_us", "retries", "missing")
		for _, t := range res.Timelines {
			missing := ""
			if len(t.Missing) > 0 {
				missing = fmt.Sprint(t.Missing)
			}
			fmt.Fprintf(stdout, "%-10d %-24s %8d %5d %10.2f %8d %s\n",
				t.TraceID, apiName(t.API), t.Seq, t.Shard, float64(t.Total())/float64(time.Microsecond), t.Retries, missing)
		}
	}
	if *chrome != "" {
		b, err := flightrec.ChromeTrace(res, apiName)
		if err != nil {
			fmt.Fprintln(stderr, "laketrace:", err)
			return 2
		}
		if err := os.WriteFile(*chrome, b, 0o644); err != nil {
			fmt.Fprintln(stderr, "laketrace:", err)
			return 2
		}
		fmt.Fprintf(stdout, "\nwrote Chrome trace (%d bytes) to %s — load in chrome://tracing or ui.perfetto.dev\n",
			len(b), *chrome)
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
