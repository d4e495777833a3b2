package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// A chart plots the columns of one sweep-style table.
type chart struct {
	table, file string // the table's title prefix; the SVG's file name
	x, y        string // column headers; y "" plots every column but x
	by          string // if set, one series per value of this column
	ylabel      string
	logY        bool
}

var charts = []chart{
	{table: "E3. ", file: "e3-queues.svg", x: "n", ylabel: "ns per hold", logY: true},
	{table: "E7. ", file: "e7-tierstudy.svg", x: "link Gbps", y: "delivered %", ylabel: "delivered %"},
	{table: "E9. ", file: "e9-replication.svg", x: "zipf s", y: "hit ratio", by: "strategy", ylabel: "local hit ratio"},
}

// chartFor returns t's chart, or nil if t has none.
func chartFor(t *metrics.Table) *chart {
	for i := range charts {
		if strings.HasPrefix(t.Title, charts[i].table) {
			return &charts[i]
		}
	}
	return nil
}

// series reads ch's series from t's cells, in row order. A cell that is
// not a number (E3's "-": a size too slow to measure) is left out.
func (ch chart) series(t *metrics.Table) []*metrics.Series {
	x, by := slices.Index(t.Headers, ch.x), slices.Index(t.Headers, ch.by)
	var out []*metrics.Series
	for _, r := range t.Rows {
		xv, _ := strconv.ParseFloat(r[x], 64)
		for i, h := range t.Headers {
			if i == x || ch.y != "" && h != ch.y {
				continue
			}
			yv, err := strconv.ParseFloat(r[i], 64)
			if err != nil {
				continue
			}
			if by >= 0 {
				h = r[by]
			}
			j := slices.IndexFunc(out, func(s *metrics.Series) bool { return s.Name == h })
			if j < 0 {
				j, out = len(out), append(out, &metrics.Series{Name: h})
			}
			out[j].Append(xv, yv)
		}
	}
	return out
}

// WriteSVGReports renders the sweep-style tables among tables — E3's
// queue costs, E7's delivery and E9's hit ratios — as SVG charts into
// dir, the graphical-output-analyzer side of the framework, and returns
// the written paths. Other tables get no chart.
func WriteSVGReports(dir string, tables []*metrics.Table) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var written []string
	for _, t := range tables {
		ch := chartFor(t)
		if ch == nil {
			continue
		}
		plot := metrics.NewSVGPlot(t.Title, ch.x, ch.ylabel)
		plot.LogY = ch.logY
		for _, s := range ch.series(t) {
			plot.Add(s)
		}
		var svg bytes.Buffer
		path := filepath.Join(dir, ch.file)
		if err := plot.Render(&svg); err != nil {
			return written, err
		}
		if err := os.WriteFile(path, svg.Bytes(), 0o644); err != nil {
			return written, err
		}
		written = append(written, path)
	}
	return written, nil
}
