// Package experiments contains one driver per reproduced exhibit:
// the paper's Table 1 (E1) and the quantitative claims C1–C6 of its
// Sections 3–5 (E2–E10), as indexed in DESIGN.md. Each driver returns
// a metrics.Table shaped like the row set the paper (or the study it
// cites) reports; cmd/experiments prints them and the root-level
// benchmarks regenerate them under `go test -bench`.
package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/simulators/bricks"
	"repro/internal/simulators/chicsim"
	"repro/internal/simulators/gridsim"
	"repro/internal/simulators/monarc"
	"repro/internal/simulators/optorsim"
	"repro/internal/simulators/simgrid"
	"repro/internal/taxonomy"
)

// IDs lists the experiment identifiers in order.
func IDs() []string {
	return []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10"}
}

// Titles maps experiment IDs to their descriptions.
func Titles() map[string]string {
	return map[string]string{
		"E1":  "Table 1: design comparison of the surveyed simulators",
		"E2":  "C1: event-driven vs time-driven DES efficiency",
		"E3":  "C2: event-queue structure shoot-out (O(1) vs O(log n))",
		"E4":  "C3: job-to-execution-context mapping",
		"E5":  "C4: centralized vs multi-worker (distributed) execution",
		"E6":  "C5: validation against queueing theory",
		"E7":  "C6: MONARC T0/T1 replication study (link-capacity sweep)",
		"E8":  "Bricks vs MONARC: central model vs tier model",
		"E9":  "OptorSim vs ChicagoSim: pull vs push replication",
		"E10": "SimGrid vs GridSim: broker strategies vs economy",
	}
}

// Profiles returns the taxonomy profiles of the six surveyed
// simulators plus this framework, in the paper's presentation order.
func Profiles() []*taxonomy.Profile {
	return []*taxonomy.Profile{
		bricks.Profile(),
		optorsim.Profile(),
		simgrid.Profile(),
		gridsim.Profile(),
		chicsim.Profile(),
		monarc.Profile(),
		taxonomy.SelfProfile(),
	}
}

// E1Table1 regenerates the paper's Table 1 from the machine-readable
// profiles.
func E1Table1() *metrics.Table {
	return taxonomy.Table1(Profiles())
}

// E1Diffs renders the pairwise-differences report the paper's critical
// analysis narrates: for each adjacent pair of surveyed simulators,
// the axes on which they disagree.
func E1Diffs() *metrics.Table {
	profiles := Profiles()
	t := metrics.NewTable("E1b. Pairwise design differences", "pair", "axis differences")
	for i := 0; i+1 < len(profiles); i++ {
		a, b := profiles[i], profiles[i+1]
		diffs := taxonomy.Diff(a, b)
		if len(diffs) == 0 {
			diffs = []string{"(identical)"}
		}
		// The pair is named on its first row only.
		pair := fmt.Sprintf("%s vs %s", a.Name, b.Name)
		for _, d := range diffs {
			t.AddRow(pair, d)
			pair = ""
		}
	}
	return t
}
