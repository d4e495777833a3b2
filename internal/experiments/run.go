package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/metrics"
)

// Run executes one experiment by ID and returns its tables. quick
// shrinks problem sizes for smoke runs (used by tests and CI); the
// full sizes regenerate the paper-shaped results.
func Run(id string, quick bool) ([]*metrics.Table, error) {
	scale := 1
	if quick {
		scale = 10
	}
	switch id {
	case "E1":
		return []*metrics.Table{E1Table1(), E1Diffs()}, nil
	case "E2":
		return []*metrics.Table{E2EventVsTimeDriven(20000/scale, 10.0, []float64{10, 1, 0.1, 0.01})}, nil
	case "E3":
		sizes := []int{100, 1000, 10000, 100000}
		ops := 20000 / scale
		if quick {
			sizes = []int{100, 1000, 10000}
		}
		return []*metrics.Table{
			E3QueueShootout(sizes, ops),
			E3aCalendarResize([]int{1000, 10000}, ops),
		}, nil
	case "E4":
		return []*metrics.Table{E4ThreadMapping(20000/scale, 10)}, nil
	case "E5":
		counts := []int{1, 2, 4}
		if n := runtime.NumCPU(); n >= 8 {
			counts = append(counts, 8)
		}
		horizon := 60.0
		work := 30000
		if quick {
			horizon, work = 20, 5000
		}
		tables := []*metrics.Table{
			E5ParallelEngine(8, 16, work, horizon, counts),
			E5aLookahead([]float64{0.25, 0.5, 1, 2, 4}, horizon),
		}
		tcp, err := E5bDistributedOverhead(8, 8, work/10, horizon)
		if err != nil {
			return nil, err
		}
		tables = append(tables, tcp, E5cOptimisticVsConservative(6, horizon))
		tables = append(tables, E5dCheckpointOverhead(work, horizon))
		return tables, nil
	case "E6":
		return []*metrics.Table{E6Validation(1_000_000 / scale)}, nil
	case "E7":
		runs, horizon := 40, 900.0
		if quick {
			runs, horizon = 12, 400
		}
		return []*metrics.Table{
			E7TierStudy(runs, horizon),
			E7aGranularity(20/scale+2, 5e6),
		}, nil
	case "E8":
		counts := []int{2, 4, 8, 16}
		if quick {
			counts = []int{2, 4}
		}
		return []*metrics.Table{E8CentralVsTier(counts)}, nil
	case "E9":
		skews := []float64{0, 0.8, 1.2}
		if quick {
			skews = []float64{0, 1.2}
		}
		return []*metrics.Table{E9PullVsPush(skews)}, nil
	case "E10":
		dagTable, err := E10aDAGScheduling()
		if err != nil {
			return nil, err
		}
		return []*metrics.Table{E10Brokering(), dagTable}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown id %q (valid: %v)", id, IDs())
	}
}
