package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Track binds one recorder to a named timeline for export. In a
// federation run each LP and each pool worker is its own track, so the
// trace viewer shows load imbalance and barrier waits side by side.
type Track struct {
	// Name labels the track ("lp-3", "worker-1").
	Name string
	// TID is the Chrome-trace thread id; distinct per track.
	TID int
	// Rec holds the track's spans.
	Rec *Recorder
}

// SpanTrack is a named timeline over an explicit span slice — the form
// tracks take after crossing a process boundary (shipped in a stats
// frame) or after MergeTracks aligned them onto a shared clock.
type SpanTrack struct {
	// Name labels the track ("coordinator", "w0/lp-3").
	Name string
	// TID is the Chrome-trace thread id; distinct per track.
	TID int
	// Spans holds the track's records, oldest first.
	Spans []Span
}

// SpanTrackOf snapshots a live Track into its exportable form.
func SpanTrackOf(tr Track) SpanTrack {
	st := SpanTrack{Name: tr.Name, TID: tr.TID}
	if tr.Rec != nil {
		st.Spans = tr.Rec.Spans()
	}
	return st
}

// WriteChromeTrace renders tracks in the Chrome trace-event JSON
// format (the {"traceEvents": [...]} object form), loadable in
// Perfetto and chrome://tracing:
//
//   - duration kinds (exec, barrier-wait, window-busy, deliver, the
//     coordinator window phases, heal/checkpoint/recovery) become
//     complete ("X") events with wall-clock ts/dur in microseconds,
//   - point kinds (schedule, cancel, skip, resume) become instant
//     ("i") events,
//   - the pending-queue depth carried by exec and schedule records
//     becomes a per-track counter ("C") series,
//   - simulation time and event seq ride along in args, so a span can
//     be correlated back to a determinism trace.
//
// All tracks share pid 0; each gets a thread_name metadata record.
func WriteChromeTrace(w io.Writer, tracks ...Track) error {
	sts := make([]SpanTrack, len(tracks))
	for i, tr := range tracks {
		sts[i] = SpanTrackOf(tr)
	}
	return WriteChromeTraceSpans(w, sts...)
}

// WriteChromeTraceSpans is WriteChromeTrace over pre-extracted span
// tracks; see there for the emitted event vocabulary.
func WriteChromeTraceSpans(w io.Writer, tracks ...SpanTrack) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(s string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(s)
	}
	for _, tr := range tracks {
		emit(fmt.Sprintf(`{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
			tr.TID, strconv.Quote(tr.Name)))
	}
	for _, tr := range tracks {
		counter := strconv.Quote("queue:" + tr.Name)
		for _, s := range tr.Spans {
			name := s.Label
			if name == "" {
				name = s.Kind.String()
			}
			ts := float64(s.Wall) / 1e3 // ns → µs
			switch s.Kind {
			case KindExec, KindBarrierWait, KindWindowBusy, KindDeliver,
				KindWindowSend, KindAwaitBarrier, KindHeal, KindCheckpoint, KindRecovery,
				KindMigrate, KindReadopt:
				emit(fmt.Sprintf(`{"ph":"X","pid":0,"tid":%d,"ts":%.3f,"dur":%.3f,"name":%s,"cat":%q,"args":{"t":%g,"seq":%d}}`,
					tr.TID, ts, float64(s.Dur)/1e3, strconv.Quote(name), s.Kind, s.Time, s.Seq))
			case KindSchedule, KindCancel, KindSkip:
				emit(fmt.Sprintf(`{"ph":"i","s":"t","pid":0,"tid":%d,"ts":%.3f,"name":%s,"cat":%q,"args":{"t":%g,"seq":%d}}`,
					tr.TID, ts, strconv.Quote(name), s.Kind, s.Time, s.Seq))
			}
			if s.Kind == KindExec || s.Kind == KindSchedule {
				emit(fmt.Sprintf(`{"ph":"C","pid":0,"tid":%d,"ts":%.3f,"name":%s,"args":{"pending":%d}}`,
					tr.TID, ts, counter, s.Queue))
			}
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// ValidateChromeTrace parses Chrome trace-event JSON and returns the
// number of trace events and the set of distinct tids seen. It is the
// check behind `make trace-smoke`: the exporter hand-writes JSON for
// speed, so the smoke test proves a strict parser accepts it.
func ValidateChromeTrace(data []byte) (events int, tids map[int]bool, err error) {
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			TID int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, nil, fmt.Errorf("obs: invalid Chrome trace JSON: %w", err)
	}
	tids = make(map[int]bool)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "" {
			return 0, nil, fmt.Errorf("obs: trace event %d missing ph", events)
		}
		tids[ev.TID] = true
	}
	return len(doc.TraceEvents), tids, nil
}
