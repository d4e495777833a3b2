package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/eventq"
	"repro/internal/metrics"
	"repro/internal/simulators/chicsim"
	"repro/internal/simulators/monarc"
	"repro/internal/simulators/optorsim"
)

// WriteSVGReports renders the three sweep-style experiments as SVG
// charts into dir — the graphical-output-analyzer side of the
// framework. It returns the written file paths.
func WriteSVGReports(dir string, quick bool) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var written []string
	write := func(name string, plot *metrics.SVGPlot) error {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := plot.Render(f); err != nil {
			return err
		}
		written = append(written, path)
		return nil
	}

	// E3: queue cost vs population (log y).
	ops := 20000
	sizes := []int{100, 1000, 10000, 100000}
	if quick {
		ops = 2000
		sizes = []int{100, 1000, 10000}
	}
	qplot := metrics.NewSVGPlot("E3: event-queue hold cost", "pending events", "ns per op")
	qplot.LogY = true
	for _, k := range eventq.Kinds() {
		s := &metrics.Series{Name: string(k)}
		for _, n := range sizes {
			if cost, ok := e3Cost(k, n, ops); ok {
				s.Append(float64(n), max(cost, 1))
			}
		}
		qplot.Add(s)
	}
	if err := write("e3-queues.svg", qplot); err != nil {
		return nil, err
	}

	// E7: delivery percentage vs uplink capacity.
	runs, horizon := 40, 900.0
	if quick {
		runs, horizon = 12, 400
	}
	points := monarc.RunTierStudy(1, []float64{0.622, 1.25, 2.5, 10, 30, 40}, runs, horizon)
	tplot := metrics.NewSVGPlot("E7: T0→T1 delivery vs uplink capacity", "link Gbps", "delivered %")
	ds := &metrics.Series{Name: "delivered %"}
	for _, p := range points {
		ds.Append(p.LinkGbps, p.DeliveredPct)
	}
	tplot.Add(ds)
	if err := write("e7-tierstudy.svg", tplot); err != nil {
		return nil, err
	}

	// E9: hit ratio vs popularity skew for the three strategies.
	skews := []float64{0, 0.4, 0.8, 1.2, 1.6}
	if quick {
		skews = []float64{0, 0.8, 1.6}
	}
	rplot := metrics.NewSVGPlot("E9: local hit ratio vs Zipf skew", "zipf s", "hit ratio")
	pull := &metrics.Series{Name: "pull-lru"}
	econ := &metrics.Series{Name: "pull-economic"}
	push := &metrics.Series{Name: "push"}
	for _, s := range skews {
		oc := optorsim.DefaultConfig()
		oc.Sites, oc.Files, oc.Jobs = 5, 80, 150
		oc.ZipfS = s
		oc.Optimizer = optorsim.AlwaysLRU
		pull.Append(s, optorsim.Run(oc).LocalHitRatio)
		oc.Optimizer = optorsim.Economic
		econ.Append(s, optorsim.Run(oc).LocalHitRatio)
		cc := chicsim.DefaultConfig()
		cc.Sites, cc.Files, cc.Jobs = 5, 80, 150
		cc.ZipfS = s
		cc.Placement = chicsim.ComputeAware
		cc.Push = true
		cc.PushThresh = 3
		cc.PushFanout = 2
		push.Append(s, chicsim.Run(cc).LocalHitRatio)
	}
	rplot.Add(pull)
	rplot.Add(econ)
	rplot.Add(push)
	if err := write("e9-replication.svg", rplot); err != nil {
		return nil, err
	}
	if len(written) != 3 {
		return written, fmt.Errorf("experiments: wrote %d of 3 reports", len(written))
	}
	return written, nil
}
