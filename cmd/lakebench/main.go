// Command lakebench regenerates the tables and figures of the LAKE paper's
// evaluation.
//
// Usage:
//
//	lakebench -list            enumerate experiments
//	lakebench -exp fig7        run one experiment
//	lakebench -exp all         run everything (several minutes)
//
// Output is printed as the same rows/series the paper reports; see
// EXPERIMENTS.md for paper-vs-measured commentary. The observability
// plane's demo is laked: `laked -telemetry-addr 127.0.0.1:9623`.
package main

import (
	"flag"
	"fmt"
	"os"

	"lakego/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	exp := flag.String("exp", "", "experiment id to run, or 'all'")
	out := flag.String("out", "", "also write the output to this file")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			e, _ := experiments.Lookup(id)
			fmt.Printf("%-8s %s\n", id, e.Title)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: lakebench -exp <id>|all  (or -list)")
		os.Exit(2)
	}
	var output string
	var err error
	if *exp == "all" {
		output, err = experiments.RunAll()
	} else {
		output, err = experiments.Run(*exp)
	}
	fmt.Print(output)
	if *out != "" {
		if werr := os.WriteFile(*out, []byte(output), 0o644); werr != nil {
			fmt.Fprintln(os.Stderr, "lakebench: write:", werr)
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lakebench:", err)
		os.Exit(1)
	}
}
