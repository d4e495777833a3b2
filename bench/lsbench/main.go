// Command lsbench is the repository's one benchmark: six fixed
// workloads, three bounded end-to-end metrics (plus failed_frac) and a
// layer table measured from outside the engines. See ../README.md.
//
// The package is a module of its own (repro/bench/lsbench) that
// replaces repro with the tree two directories up, so it imports the
// engines' internal packages without being part of their build.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
)

const usage = `usage: lsbench <command> [flags]

  run        run every workload (1 warm-up, 5 timed, 1 traced round each), check
             every output, print every metric, write bench/out/run-<utc>.json
  bench      the driver's contract: --workload W --seed N --seconds S --trace 0|1
  one        one round of one workload in this process (what run and bench spawn)
  compare    compare old.json new.json, one verdict per (workload, metric)
  selfcheck  two full sets of the same build; fails unless all rows are within-bound
  golden     regenerate bench/golden.json from the single-process reference
`

func main() {
	if len(os.Args) < 2 {
		fmt.Fprint(os.Stderr, usage)
		os.Exit(2)
	}
	commands := map[string]func([]string) error{
		"run": cmdRun, "bench": cmdBench, "one": cmdOne,
		"compare": cmdCompare, "selfcheck": cmdSelfcheck, "golden": cmdGolden,
	}
	cmd, ok := commands[os.Args[1]]
	if !ok {
		fmt.Fprintf(os.Stderr, "lsbench: unknown command %q\n%s", os.Args[1], usage)
		os.Exit(2)
	}
	if err := cmd(os.Args[2:]); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "lsbench:", err)
		}
		os.Exit(1)
	}
}
