package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"text/tabwriter"
)

// span is one interval recorded by the traced round around a call into
// a layer. Spans live in memory and are written when the child exits.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index into the span list; -1 for the root
	RunID   string `json:"run_id"`
}

// tracer collects spans. A nil *tracer is the untraced round: every
// method is a no-op, so workload code calls it unconditionally.
type tracer struct {
	mu    sync.Mutex
	runID string
	spans []span
}

func (t *tracer) begin(name, layer string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, StartNs: nowNs(), Parent: parent, RunID: t.runID})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].EndNs = nowNs()
	t.mu.Unlock()
}

// layerRow is one line of the layer table. Basis says where BusyNs
// comes from: "measured" is a span or a counter read at a boundary the
// benchmark owns (or the program's own public histogram), "estimated"
// is an isolated probe's cost times the layer's operation count.
// Rows with OnPath set partition the run's wall time; their sum over
// the wall is layers.attributed_frac. Rows with Inside set lie within
// the named on-path row and are not added again.
type layerRow struct {
	Layer  string  `json:"layer"`
	Work   float64 `json:"work"`
	BusyNs float64 `json:"busy_ns"`
	WaitNs float64 `json:"wait_ns"`
	Basis  string  `json:"basis"`
	OnPath bool    `json:"on_path"`
	Inside string  `json:"inside,omitempty"`
	Note   string  `json:"note,omitempty"`
}

const (
	measured  = "measured"
	estimated = "estimated"
)

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	RunID    string             `json:"run_id"`
	RunWallS float64            `json:"run_wall_s"`
	Spans    []span             `json:"spans"`
	Layers   []layerRow         `json:"layers"`
	Metrics  map[string]float64 `json:"metrics"`
}

func writeTrace(dir string, tf *traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+tf.Workload+".json"), append(data, '\n'), 0o644)
}

func printLayerTable(w io.Writer, workload string, wallNs float64, rows []layerRow) {
	fmt.Fprintf(w, "layer table: %s (traced round, run wall %.1f ms)\n", workload, wallNs/1e6)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  layer\twork\tbusy ms\twait ms\tshare\tbasis\tplace")
	for _, r := range rows {
		place := "inside " + r.Inside
		if r.OnPath {
			place = "on path"
		}
		fmt.Fprintf(tw, "  %s\t%.0f\t%.2f\t%.2f\t%.3f\t%s\t%s\n",
			r.Layer, r.Work, r.BusyNs/1e6, r.WaitNs/1e6, r.BusyNs/wallNs, r.Basis, place)
	}
	tw.Flush()
}
