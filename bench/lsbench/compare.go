package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts of one (workload, metric) row.
const (
	better      = "better"
	worse       = "worse"
	withinBound = "within-bound"
	unresolved  = "unresolved"
)

// row is one line of a comparison: both sides' medians and quartiles,
// the ratio with its base, and the verdict.
type row struct {
	workload, metric, unit string
	old, cur               summary
	// ratio is cur.Median / old.Median; the base is old.Median.
	ratio   float64
	wins    int // pairs the new side won
	pairs   int
	verdict string
}

// judge applies the pairs rule (choosing-metrics guide, section 8) and
// the benchmark's bound to one metric.
//
// Round i of the old file is paired with round i of the new one. The
// new side is better (or, mirrored, worse) only when it wins at least
// nine tenths of all pairs, ties counting for neither, and the medians
// differ by more than the old side's own quartile distance. Failing
// that, a row whose run-to-run spread is wider than the bound is
// unresolved, not unchanged; a steady row is worse when its median
// moved past the bound in the bad direction, and within-bound
// otherwise. Set-up differences under setupFloorS are ignored.
func judge(m *metricSpec, old, cur summary) (verdict string, wins, pairs int) {
	pairs = min(len(old.Values), len(cur.Values))
	if pairs == 0 {
		return unresolved, 0, 0
	}
	sign := 1.0 // positive delta = the new side is better
	if m.better == "lower" {
		sign = -1
	}
	var losses int
	for i := 0; i < pairs; i++ {
		switch d := sign * (cur.Values[i] - old.Values[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	delta := sign * (cur.Median - old.Median)
	if m.name == "setup_s" && math.Abs(delta) < setupFloorS {
		return withinBound, wins, pairs
	}
	clear := math.Abs(delta) > old.Q3-old.Q1
	need := 0.9 * float64(pairs)
	pastBound := -delta > m.bound*old.Median
	switch {
	case clear && float64(wins) >= need:
		return better, wins, pairs
	case clear && float64(losses) >= need && pastBound:
		return worse, wins, pairs
	case math.Max(old.spread(), cur.spread()) > m.bound:
		return unresolved, wins, pairs
	case pastBound:
		return worse, wins, pairs
	}
	return withinBound, wins, pairs
}

// compareFiles builds one row per (workload, end-to-end metric) the two
// files share, plus a failed_frac row per workload.
func compareFiles(old, cur *runFile) []row {
	var rows []row
	for _, ow := range old.Workloads {
		for _, cw := range cur.Workloads {
			if cw.Workload != ow.Workload {
				continue
			}
			for i := range endToEnd {
				m := &endToEnd[i]
				r := row{workload: ow.Workload, metric: m.name, unit: m.unit, old: ow.EndToEnd[m.name], cur: cw.EndToEnd[m.name]}
				r.ratio = r.cur.Median / r.old.Median
				r.verdict, r.wins, r.pairs = judge(m, r.old, r.cur)
				rows = append(rows, r)
			}
			// failed_frac: any increase is a regression.
			f := row{workload: ow.Workload, metric: failedFrac, unit: "fraction",
				old: summary{Median: ow.FailedFrac, N: ow.Attempted}, cur: summary{Median: cw.FailedFrac, N: cw.Attempted}, verdict: withinBound}
			if cw.FailedFrac > ow.FailedFrac {
				f.verdict = worse
			}
			rows = append(rows, f)
		}
	}
	return rows
}

func printRows(out io.Writer, rows []row) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median [q1, q3] n\tnew median [q1, q3] n\tnew/old (base)\tpairs won\tverdict")
	for _, r := range rows {
		if r.metric == failedFrac {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.3g of %d\t%.3g of %d\t\t\t%s\n", r.workload, r.metric, r.unit, r.old.Median, r.old.N, r.cur.Median, r.cur.N, r.verdict)
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g] %d\t%.5g [%.5g, %.5g] %d\t%.3f (%.5g)\t%d/%d\t%s\n",
			r.workload, r.metric, r.unit, r.old.Median, r.old.Q1, r.old.Q3, r.old.N,
			r.cur.Median, r.cur.Q1, r.cur.Q3, r.cur.N, r.ratio, r.old.Median, r.wins, r.pairs, r.verdict)
	}
	tw.Flush()
}

func loadRunFile(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rf := &runFile{}
	if err := json.Unmarshal(data, rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// cmdCompare prints one row per (workload, metric) of two result files
// and fails only on a row that got worse.
func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: lsbench compare old.json new.json")
	}
	old, err := loadRunFile(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := loadRunFile(fs.Arg(1))
	if err != nil {
		return err
	}
	rows := compareFiles(old, cur)
	printRows(os.Stdout, rows)
	var bad int
	for _, r := range rows {
		if r.verdict == worse {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows worse", bad)
	}
	return nil
}

// cmdSelfcheck runs two full sets of the same build back to back and
// fails unless every end-to-end row is within-bound: the benchmark
// checking that it can hold its own bounds on this host.
func cmdSelfcheck(args []string) error {
	fs := flag.NewFlagSet("selfcheck", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "workload seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := newSession()
	if err != nil {
		return err
	}
	var sets [2]*runFile
	for i := range sets {
		var path string
		if sets[i], path, err = s.runAll(*seed); err != nil {
			return err
		}
		fmt.Printf("set %d: %s\n", i+1, path)
	}
	rows := compareFiles(sets[0], sets[1])
	printRows(os.Stdout, rows)
	var off int
	for _, r := range rows {
		if r.verdict != withinBound {
			off++
		}
	}
	if off > 0 {
		return fmt.Errorf("selfcheck: %d rows are not within-bound on two runs of the same build", off)
	}
	fmt.Println("selfcheck: every end-to-end row within-bound")
	return nil
}
