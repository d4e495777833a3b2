// Package monitoring implements the framework's monitored-data input
// path. The taxonomy classifies simulators by input data: generated
// synthetically or "accepting data sets collected by monitoring" —
// MONARC 2 accepts feeds in the format produced by the MonALISA
// monitoring service. This package defines a MonALISA-like line
// format, an encoder, a tolerant parser, and a replayer that drives a
// simulation from a monitoring capture (trace-driven DES).
//
// The line format is
//
//	<time> <site> <parameter> <value>
//
// with '#'-prefixed comment lines and blank lines ignored, e.g.
//
//	# captured 2005-07-01
//	0.0 T1.0 cpu_load 0.42
//	60.0 T1.0 cpu_load 0.55
package monitoring

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/des"
)

// Record is one monitoring sample.
type Record struct {
	Time  float64
	Site  string
	Param string
	Value float64
}

// String renders the record in wire format.
func (r Record) String() string {
	return fmt.Sprintf("%g %s %s %g", r.Time, r.Site, r.Param, r.Value)
}

// Write encodes records in wire format, one per line.
func Write(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	for _, r := range recs {
		if _, err := fmt.Fprintln(bw, r.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Parse reads records from wire format. Malformed lines — a NaN or
// infinite time or value among them, which strconv would accept —
// yield an error naming the line number; comments and blank lines are
// skipped.
func Parse(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("monitoring: line %d: want 4 fields, got %d", lineNo, len(fields))
		}
		t, ok := finite(fields[0])
		if !ok {
			return nil, fmt.Errorf("monitoring: line %d: bad time %q", lineNo, fields[0])
		}
		v, ok := finite(fields[3])
		if !ok {
			return nil, fmt.Errorf("monitoring: line %d: bad value %q", lineNo, fields[3])
		}
		recs = append(recs, Record{Time: t, Site: fields[1], Param: fields[2], Value: v})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// finite parses a numeric field that must be a finite number.
func finite(s string) (float64, bool) {
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil && !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Replay schedules handle for every record at its timestamp. Records
// are sorted by time first (captures may interleave sites). A negative
// or non-finite timestamp is rejected before anything is scheduled.
func Replay(e *des.Engine, recs []Record, handle func(Record)) error {
	for _, r := range recs {
		if !(r.Time >= 0) || math.IsInf(r.Time, 1) {
			return fmt.Errorf("monitoring: timestamp %v is not a finite time >= 0", r.Time)
		}
	}
	sorted := make([]Record, len(recs))
	copy(sorted, recs)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
	for _, r := range sorted {
		r := r
		e.At(r.Time, func() { handle(r) })
	}
	return nil
}

// Collector samples live simulation quantities into monitoring records
// at a fixed period — the emitting side of the format, used to produce
// captures that later runs replay.
type Collector struct {
	Records []Record
}

// Sample installs a periodic sampler on the engine: every period it
// calls probe and appends the returned records, until the stop time.
// The final sample always lands at or before stop, never after. stop
// must be positive — an open-ended sampler would keep the event queue
// nonempty forever and Run would never return.
func (c *Collector) Sample(e *des.Engine, period, stop float64, probe func() []Record) {
	if period <= 0 || stop <= 0 {
		panic("monitoring: Sample requires positive period and stop")
	}
	var tick func()
	tick = func() {
		c.Records = append(c.Records, probe()...)
		if e.Now()+period > stop {
			return
		}
		e.Schedule(period, tick)
	}
	// The first tick gets the same guard as the rest: with
	// period > stop no sample may fire past the stop time.
	if e.Now()+period <= stop {
		e.Schedule(period, tick)
	}
}
