// Command experiments runs the reproduction experiments E1–E10 (see
// DESIGN.md for the index) and prints their paper-shaped tables.
//
// Usage:
//
//	experiments              # run everything at full size
//	experiments -run E7      # one experiment
//	experiments -quick       # smoke-test sizes
//	experiments -list        # list experiment IDs and titles
//	experiments -svg DIR     # also chart E3, E7 and E9's tables, if they ran
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

func main() {
	one := flag.String("run", "", "run a single experiment by ID (e.g. E7)")
	quick := flag.Bool("quick", false, "reduced problem sizes")
	list := flag.Bool("list", false, "list experiments and exit")
	svgDir := flag.String("svg", "", "also write SVG charts of the sweep experiments that ran (E3, E7, E9) into this directory")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the duration of the run")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: pprof:", err)
			}
		}()
	}

	titles := experiments.Titles()
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-4s %s\n", id, titles[id])
		}
		return
	}

	ids := experiments.IDs()
	if *one != "" {
		ids = []string{*one}
	}
	var ran []*metrics.Table
	for _, id := range ids {
		fmt.Printf("=== %s: %s\n", id, titles[id])
		start := time.Now()
		tables, err := experiments.Run(id, *quick)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		ran = append(ran, tables...)
		for _, tb := range tables {
			if err := tb.Write(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			fmt.Println()
		}
		fmt.Printf("(%s took %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if *svgDir != "" {
		files, err := experiments.WriteSVGReports(*svgDir, ran)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		for _, f := range files {
			fmt.Println("wrote", f)
		}
	}
}
