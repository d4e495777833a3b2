package obs

// MergeTracks assembles one cluster timeline out of span tracks
// recorded in different processes, each with its own wall-clock epoch.
//
// The reference tracks (the coordinator's) define the timeline. Every
// other process contributes a group of tracks sharing one epoch (all
// of a worker's rings). Alignment uses the window barrier sequence:
// the coordinator records an anchor span per window (KindWindowSend,
// Seq = window index) and each worker's windowed-sync group records its
// own anchor (KindWindowBusy with the same Seq, the frame's WinSeq).
// For a worker, window k can only start after the coordinator sent
// window k, so the true epoch offset satisfies
//
//	ref.anchor(k).Wall + offset_net <= group.anchor(k).Wall + offset
//
// for every common k. MergeTracks picks the largest offset consistent
// with causality — max over common seqs of (refWall − groupWall) — so
// each worker's windows render at the latest position that still
// respects every barrier. This absorbs clock-epoch skew without any
// clock synchronization; residual error is one network latency.
//
// Groups with no common anchor (a worker that never completed a
// window) are merged unshifted. Under rollback recovery a window
// sequence can repeat; the first occurrence of each anchor wins, which
// keeps the pre-recovery timeline authoritative.
//
// The returned slice holds the reference tracks followed by every
// group's tracks with shifted Wall clocks; input spans are not
// mutated.
func MergeTracks(ref []SpanTrack, groups ...[]SpanTrack) []SpanTrack {
	out := append([]SpanTrack(nil), ref...)
	refWall := make(map[uint64]int64)
	for _, tr := range ref {
		for _, s := range tr.Spans {
			if s.Kind != KindWindowSend {
				continue
			}
			if _, ok := refWall[s.Seq]; !ok {
				refWall[s.Seq] = s.Wall
			}
		}
	}
	for _, g := range groups {
		var off int64
		found := false
		seen := make(map[uint64]bool)
		for _, tr := range g {
			for _, s := range tr.Spans {
				if s.Kind != KindWindowBusy || seen[s.Seq] {
					continue
				}
				seen[s.Seq] = true
				rw, ok := refWall[s.Seq]
				if !ok {
					continue
				}
				if d := rw - s.Wall; !found || d > off {
					off, found = d, true
				}
			}
		}
		for _, tr := range g {
			shifted := make([]Span, len(tr.Spans))
			copy(shifted, tr.Spans)
			for i := range shifted {
				shifted[i].Wall += off
			}
			out = append(out, SpanTrack{Name: tr.Name, TID: tr.TID, Spans: shifted})
		}
	}
	return out
}
