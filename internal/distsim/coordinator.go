package distsim

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/winsync"
)

// Coordinator drives a distributed run: it waits for the expected
// number of workers, verifies that their LP sets partition [0, nLPs),
// then executes lookahead windows until the horizon.
//
// Failure handling is layered. The cheap layer is session resume: when
// a worker's connection breaks (reset, corruption-poisoned stream,
// sequence gap) but the worker process survives, it reconnects,
// presents its session id, and both sides replay the unacked tail of
// sequenced frames — the simulation state never rolls back and the
// blip costs one round trip. The expensive layer is rollback recovery
// (opt-in via CheckpointEvery/MaxRecoveries): when the worker process
// itself is gone, a replacement registers the dead worker's LP set and
// the whole federation restores the last cluster checkpoint. A crashed
// coordinator restarts from its journal (JournalPath), re-adopting the
// workers that survived it. Every layer preserves bit-identical
// results.
type Coordinator struct {
	NLPs      int
	Lookahead float64
	Horizon   float64
	Seed      uint64

	// Timeout bounds every frame receive and write, and every other
	// wait of the run is derived from it (env.go has the table; the
	// config frame carries it to the workers). Zero means
	// DefaultTimeout; Validate refuses a negative one.
	Timeout time.Duration
	// CheckpointEvery takes a cluster checkpoint after every k-th
	// window (plus one before the first). Zero disables checkpointing
	// unless MaxRecoveries or CheckpointPath ask for it, in which case
	// it defaults to every window.
	CheckpointEvery int
	// MaxRecoveries is how many worker crashes Serve survives by
	// rollback-recovery. Zero (the default) fails the run on the first
	// dead worker.
	MaxRecoveries int
	// CheckpointPath, when set, persists every cluster checkpoint to
	// this file (atomically): what a journal restart rolls back to when
	// it cannot re-adopt every worker at the journal's tip.
	CheckpointPath string
	// JournalPath, when set, appends a durable control-plane journal
	// record at every committed window barrier (plus migrations,
	// recoveries, skips, and checkpoint writes), fsynced before the
	// barrier is acknowledged. On a restart whose journal already
	// holds a genesis record, Serve replays the journal and re-adopts
	// the surviving workers in place — zero rolled-back windows when
	// every worker survived — falling back to rollback recovery from
	// the CheckpointPath file when it cannot. See journal.go.
	JournalPath string
	// Rebalance, when set, turns on adaptive partitioning: workers
	// report per-LP load deltas on every done frame, and every
	// RebalanceEvery executed windows the coordinator hands the
	// accumulated loads to the policy and executes whatever moves it
	// plans through live LP migration at the barrier. Results stay
	// bit-identical to the static run — migration relocates an LP's
	// whole engine between quiescent barriers, and the global delivery
	// order is placement-independent. Nil keeps everything static.
	Rebalance partition.Policy
	// RebalanceEvery is the planning cadence in executed windows
	// (default 16). Loads accumulate between planning rounds.
	RebalanceEvery int

	// Obs, when set (see EnableObservability), aggregates cluster-wide
	// telemetry: the config frame instructs workers to record and
	// piggyback snapshots, the coordinator records its window-phase
	// spans, and worker trace rings fold into one merged timeline. Nil
	// keeps the whole path at a pointer test per window.
	Obs *ClusterObs

	// Counters are the results, populated by Serve and current at every
	// barrier.
	Counters
	// WorkerStats is slot-indexed. A worker that died between the final
	// barrier and its stats frame leaves an entry with Incomplete set
	// (and StatsIncomplete true) instead of failing the completed run.
	WorkerStats []WorkerStats

	// Crash-test hooks: when non-zero, Serve returns errCrashHook
	// right after (respectively right before) appending the journal
	// record for barrier N — simulating a coordinator killed at the
	// two interesting instants around a committed barrier. Test-only.
	crashAfterBarrier  uint64
	crashBeforeBarrier uint64

	env env // nil: the wall clock
}

// Counters is what a run has done so far, under one set of names: the
// Coordinator's results, the copy a ClusterObs keeps for a live endpoint
// and what a ClusterSnapshot reports.
type Counters struct {
	Windows uint64 `json:"windows"` // executed barriers
	// WindowsSkipped counts the lookahead windows jumped because no LP
	// anywhere had an event in them; Windows + WindowsSkipped is the
	// fixed window lattice of the run.
	WindowsSkipped uint64  `json:"windows_skipped"`
	EventsRouted   uint64  `json:"events_routed"`
	Migrations     uint64  `json:"migrations"` // live LP migrations executed by the rebalancer
	Clock          float64 `json:"clock"`
	Reconnects     int     `json:"reconnects"` // session resumes (same process, new connection)
	Recoveries     int     `json:"recoveries"` // rollback recoveries (worker process replaced)
	// Readopted counts surviving workers a journal restart re-adopted
	// in place (each kept its engine state; no rollback).
	Readopted       int    `json:"readopted"`
	JournalRecords  uint64 `json:"journal_records"`
	JournalBytes    uint64 `json:"journal_bytes"`
	StatsIncomplete bool   `json:"stats_incomplete"`
}

// publish brings the counters up to the control state and the journal
// and, when the cluster is observed, hands the live endpoint its copy.
func (c *Coordinator) publish(s *session) {
	c.Clock, c.Windows, c.WindowsSkipped, c.EventsRouted = s.ctl.clock, s.ctl.windows, s.ctl.skipped, s.ctl.routed
	if s.journal != nil {
		c.JournalRecords, c.JournalBytes = s.journal.records, s.journal.bytes
	}
	if c.Obs != nil {
		c.Obs.note(c.Counters)
	}
}

// errCrashHook is the sentinel the crash-test hooks fail Serve with.
var errCrashHook = errors.New("distsim: coordinator crash hook fired")

// NewCoordinator configures a run over nLPs logical processes. It
// panics on parameters Validate rejects.
func NewCoordinator(nLPs int, lookahead, horizon float64, seed uint64) *Coordinator {
	c := &Coordinator{NLPs: nLPs, Lookahead: lookahead, Horizon: horizon, Seed: seed}
	if err := c.Validate(); err != nil {
		panic(err)
	}
	return c
}

// Validate reports run parameters no Serve could run with. Serve calls
// it; a front end that fills the struct from outside input calls it
// before it opens a socket.
func (c *Coordinator) Validate() error {
	if c.NLPs <= 0 || !(c.Lookahead > 0) || !(c.Horizon > 0) || math.IsInf(c.Horizon, 1) {
		return fmt.Errorf("distsim: coordinator needs LPs, lookahead > 0 and a finite horizon > 0, got %d, %v, %v", c.NLPs, c.Lookahead, c.Horizon)
	}
	// What a worker would refuse in the config frame.
	if math.IsInf(c.Lookahead, 1) {
		return fmt.Errorf("distsim: coordinator lookahead %v is not finite", c.Lookahead)
	}
	if c.CheckpointEvery < 0 || c.RebalanceEvery < 0 || c.MaxRecoveries < 0 {
		return fmt.Errorf("distsim: coordinator CheckpointEvery %d, RebalanceEvery %d and MaxRecoveries %d must be >= 0",
			c.CheckpointEvery, c.RebalanceEvery, c.MaxRecoveries)
	}
	if err := checkTimeoutSec(c.timeout().Seconds()); err != nil {
		return fmt.Errorf("distsim: coordinator Timeout %v: %w", c.Timeout, err)
	}
	return nil
}

// PerLPCounts flattens the workers' model-level counts (WorkerStats)
// into one slice indexed by LP: what a run is compared on.
func (c *Coordinator) PerLPCounts() []uint64 {
	counts := make([]uint64, c.NLPs)
	for _, ws := range c.WorkerStats {
		for lp, n := range ws.PerLPCounts {
			if lp >= 0 && lp < len(counts) { // a worker's word, off the wire
				counts[lp] = n
			}
		}
	}
	return counts
}

// timeout resolves the effective per-frame deadline.
func (c *Coordinator) timeout() time.Duration { return cmp.Or(c.Timeout, DefaultTimeout) }

// rebalanceEvery resolves the planning cadence (meaningful only when
// Rebalance is set).
func (c *Coordinator) rebalanceEvery() int { return cmp.Or(c.RebalanceEvery, 16) }

// every resolves the effective checkpoint cadence (0 = disabled).
func (c *Coordinator) every() int {
	if c.CheckpointEvery == 0 && (c.MaxRecoveries > 0 || c.CheckpointPath != "") {
		return 1
	}
	return c.CheckpointEvery
}

// sessionID derives the session identity for a slot incarnation. Ids
// are deterministic in (run seed, slot, epoch) yet unguessable enough
// that a stale worker from a replaced incarnation cannot resume.
func (c *Coordinator) sessionID(slot, epoch int) uint64 {
	return rng.New(c.Seed).Derive(fmt.Sprintf("session:%d:%d", slot, epoch)).Uint64()
}

// slotError tags a peer failure with the worker slot it happened on,
// so the recovery path knows whose replacement to wait for.
type slotError struct {
	slot int
	err  error
}

func (e *slotError) Error() string {
	return fmt.Sprintf("distsim: worker %d failed: %v", e.slot, e.err)
}
func (e *slotError) Unwrap() error { return e.err }

// session is the I/O shell of one Serve call around its control state:
// the listener, one link per seat, and the window loop's scratch. What
// the run is synchronised on lives in ctl (control.go).
type session struct {
	ln      net.Listener
	env     env
	ctl     *control
	links   []*link          // per seat; nil until a worker is seated
	parked  *admission       // a registration that knocked during a resume wait, kept for rollback recovery
	loads   []partition.Load // per LP: accumulated load since the last plan (nil = rebalance off)
	ckpt    *clusterCheckpoint
	journal *journal // nil unless JournalPath is set
	// resumed is Reconnects at the last committed barrier: what
	// resumesPerBarrier caps is the difference.
	resumed int

	// Reused window-loop scratch: outbound frame headers, collected
	// replies, per-slot error slots, the merged produced list (sized by
	// high-water mark), and the payload arena produced events are
	// copied into before routing (their decoded Data views die with the
	// next frame read).
	wframes  []frame
	done     []*frame
	errs     []error
	produced []Event
	arena    []byte
}

// exchange runs one barrier on the calling goroutine: it writes every
// seat the frame mk builds for it, then reads, in seat order, the reply
// of every seat whose write went through into s.done[seat]. Every frame
// is out before the first reply is read, so the workers compute at once
// and the barrier costs the slowest of them plus the frames' serialised
// transfer. Seats that fail are healed serially afterwards — session
// resume replays the retained send, then the receive is retried on the
// healed link.
//
// phase and seq label the barrier for the coordinator's recorder:
// KindWindowSend splits into a send span (the fan-out, whose wall time
// anchors the merged timeline) and an await-barrier span;
// KindCheckpoint records one covering span; zero records nothing.
func (c *Coordinator) exchange(s *session, phase obs.Kind, seq uint64, mk func(wi int) *frame) error {
	co := c.Obs
	var t0, t1 int64
	if co != nil {
		t0 = obs.Now()
	}
	for wi, l := range s.links {
		s.errs[wi] = l.send(mk(wi))
	}
	if co != nil {
		t1 = obs.Now()
	}
	for wi, l := range s.links {
		if s.errs[wi] == nil {
			s.done[wi], s.errs[wi] = c.recvFrame(l)
		}
	}
	if co != nil {
		t2 := obs.Now()
		switch phase {
		case obs.KindWindowSend:
			co.span(obs.KindWindowSend, t0, t1-t0, seq, s.ctl.clock)
			co.span(obs.KindAwaitBarrier, t1, t2-t1, seq, s.ctl.clock)
		case obs.KindCheckpoint:
			co.span(obs.KindCheckpoint, t0, t2-t0, seq, s.ctl.clock)
		}
	}
	for wi := range s.links {
		err := s.errs[wi]
		if err == nil {
			continue
		}
		var h0 int64
		if co != nil {
			h0 = obs.Now()
		}
		if rerr := c.resumeSlot(s, wi, err); rerr != nil {
			return &slotError{wi, rerr}
		}
		f, ferr := c.recvSlot(s, wi)
		if ferr != nil {
			return ferr
		}
		if co != nil {
			co.span(obs.KindHeal, h0, obs.Now()-h0, seq, s.ctl.clock)
		}
		s.done[wi] = f
	}
	return nil
}

// Serve accepts nWorkers connections on the listener and runs the
// simulation to completion. It returns after all workers acknowledged
// the stop frame; the listener stays open throughout to accept worker
// reconnects (session resume) and replacement workers (rollback
// recovery). The caller owns the listener.
//
// The resume window and the wait for a replacement worker close only if
// the listener has a SetDeadline method, as *net.TCPListener and
// chaos's wrapper do. A wrapper that embeds net.Listener hides the
// method: a broken seat then waits until some connection knocks.
//
// Every Serve has the same steps: obtain a control state (journal
// replay, or blank), seat a worker on every seat through admission
// (fill), bring the cluster to that state, finish the run. On a journal
// restart the ladder is re-adopt -> rollback -> fail: with no usable
// checkpoint it fails rather than guess.
func (c *Coordinator) Serve(ln net.Listener, nWorkers int) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if nWorkers <= 0 {
		return fmt.Errorf("distsim: Serve with %d workers", nWorkers)
	}
	s := &session{ln: ln, env: orWall(c.env), resumed: c.Reconnects, links: make([]*link, nWorkers),
		wframes: make([]frame, nWorkers), done: make([]*frame, nWorkers), errs: make([]error, nWorkers)}
	defer s.shutdown()
	tip, ck, err := c.obtain(s)
	if err != nil {
		return err
	}
	// However Serve ends, the counters it reached are its result.
	defer c.publish(s)

	atTip, err := c.fill(s)
	if err != nil {
		return err
	}
	if c.Rebalance != nil {
		// After a restart planning starts from fresh deltas. Placement can
		// diverge from the uninterrupted run — results cannot, delivery
		// order is placement-independent.
		s.loads = make([]partition.Load, c.NLPs)
		for i := range s.loads {
			s.loads[i].LP = i
		}
	}
	s.bindObs(c)

	// A journal tip is the state when every worker was re-adopted at it;
	// the checkpoint file is then only the budget for later worker
	// failures. Otherwise everyone restores the checkpoint.
	s.ckpt = ck
	if tip != nil && !atTip {
		if ck == nil {
			return errors.New("distsim: journal restart needs a rollback but CheckpointPath holds no checkpoint")
		}
		if err := c.rollbackTo(s, ck); err != nil {
			return err
		}
	}
	// A new journal starts here: genesis pins the run parameters and the
	// control state before the first window frame goes out, so any later
	// crash restarts from a replayable file.
	if c.JournalPath != "" && tip == nil {
		if s.journal, err = createJournal(c.JournalPath); err == nil {
			err = s.journal.genesis(s.ctl)
		}
		if err != nil {
			return err
		}
	}
	if tip == nil && c.every() > 0 {
		// Initial checkpoint: a crash inside the very first window must be
		// as recoverable as any other.
		if err := c.checkpoint(s); err != nil {
			return err
		}
	}
	c.publish(s)
	return c.finish(s)
}

// obtain gives the session its control state, one of two ways. A
// journal holding a genesis record means this Serve is a crash restart:
// the replayed state is returned as tip, the journal is reopened for
// appending, and ck is the CheckpointPath file, nil when there is none
// and refused when the journal does not vouch for it. Else the state is
// blank and registration fills it in.
func (c *Coordinator) obtain(s *session) (tip *journalState, ck *clusterCheckpoint, err error) {
	if c.JournalPath != "" {
		st, err := loadJournal(c.JournalPath)
		switch {
		case err == nil || errors.Is(err, ErrJournalTruncated):
			if st.ctl != nil {
				tip = st
			}
			// Torn before genesis ever landed: nothing usable, recreate.
		case !errors.Is(err, os.ErrNotExist):
			return nil, nil, err
		}
	}
	if tip == nil {
		s.ctl = newControl(c.NLPs, c.Lookahead, c.Horizon, c.Seed, len(s.links))
		return nil, nil, nil
	}
	s.ctl = tip.ctl
	if len(s.ctl.slots) != len(s.links) || s.ctl.nLPs != c.NLPs || s.ctl.lookahead != c.Lookahead ||
		s.ctl.horizon != c.Horizon || s.ctl.seed != c.Seed {
		return nil, nil, fmt.Errorf("distsim: journal %s records a %d-worker run over %d LPs (lookahead %v, horizon %v, seed %d); this coordinator is configured differently",
			c.JournalPath, len(s.ctl.slots), s.ctl.nLPs, s.ctl.lookahead, s.ctl.horizon, s.ctl.seed)
	}
	if path := c.CheckpointPath; path != "" {
		var at *control // the state at ck's cut
		if at, ck, err = loadClusterCheckpoint(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, nil, err
		}
		// A cut of another shape, older than the last checkpoint the
		// journal saw made durable, or past its tip, is some other run's
		// or moment's file.
		if ck != nil && (len(at.slots) != len(s.links) || at.nLPs != c.NLPs) {
			return nil, nil, fmt.Errorf("%w: %s holds %d workers over %d LPs, this run %d over %d",
				errCheckpointMismatch, path, len(at.slots), at.nLPs, len(s.links), c.NLPs)
		}
		if ck != nil && (at.windows < tip.ckptWindows || at.windows > s.ctl.windows) {
			return nil, nil, fmt.Errorf("%w: %s is at barrier %d; the journal saw barrier %d checkpointed and its tip is barrier %d",
				errCheckpointMismatch, path, at.windows, tip.ckptWindows, s.ctl.windows)
		}
	}
	s.journal, err = openJournal(c.JournalPath, tip)
	return tip, ck, err
}

// shutdown is the deferred cleanup of one Serve call.
func (s *session) shutdown() {
	for _, l := range s.links {
		if l != nil {
			l.close()
		}
	}
	if s.parked != nil {
		s.parked.p.close()
	}
	s.journal.close()
}

// finish drives a configured session to completion: the window loop
// with rollback recovery around it, then shutdown, stats collection,
// and the final bye.
func (c *Coordinator) finish(s *session) error {
	// Window loop, with rollback-recovery around it.
	err := c.runWindows(s)
	for err != nil {
		var se *slotError
		if !errors.As(err, &se) || s.ckpt == nil || c.Recoveries >= c.MaxRecoveries {
			return err
		}
		c.Recoveries++
		if rerr := c.recoverSlot(s, se.slot); rerr != nil {
			var cascade *slotError
			if errors.As(rerr, &cascade) {
				err = rerr // another worker died mid-recovery; recover it too
				continue
			}
			return fmt.Errorf("distsim: recovery after [%v] failed: %w", se, rerr)
		}
		err = c.runWindows(s)
	}

	// Shutdown + stats + bye. The bye releases the worker: a worker
	// that sent stats but never hears the bye keeps trying to resume
	// until its retry budget runs out, in case the stats frame died on
	// the wire.
	//
	// The run itself is already decided here — every window executed
	// and every result routed — so a worker that dies between the final
	// barrier and its stats frame must not turn a completed run into an
	// error. Its slot keeps a placeholder entry (the LP assignment,
	// Incomplete set) and Serve still returns nil; only protocol
	// violations (a live worker answering with the wrong frame) stay
	// fatal.
	c.WorkerStats = make([]WorkerStats, len(s.links))
	c.StatsIncomplete = false
	markIncomplete := func(wi int) {
		c.WorkerStats[wi] = WorkerStats{LPs: slices.Clone(s.ctl.slots[wi].lps), Incomplete: true}
		c.StatsIncomplete = true
	}
	failed := make([]bool, len(s.links))
	for wi := range s.links {
		if err := c.sendSlot(s, wi, &frame{Kind: frameStop}); err != nil {
			failed[wi] = true
		}
	}
	for wi := range s.links {
		if failed[wi] {
			markIncomplete(wi)
			continue
		}
		f, err := c.recvSlot(s, wi)
		if err != nil {
			markIncomplete(wi)
			continue
		}
		if f.Kind != frameStats {
			return fmt.Errorf("distsim: expected stats, got %s", f.Kind)
		}
		c.WorkerStats[wi] = f.Stats
		if c.Obs != nil && len(f.Obs) > 0 {
			if err := c.Obs.fold(wi, f.Obs); err != nil {
				return err
			}
		}
		_ = s.links[wi].send(&frame{Kind: frameBye}) // best effort; see above
	}
	return nil
}

// admission is one connection that knocked on the listener, classified
// by its first frame. A register is a worker process holding no
// session: fresh, or relaunched. A hello holds one and wants its seat
// back after a broken connection or a coordinator outage: slot is the
// seat whose current session it presented, or -1 — a zombie of a
// replaced incarnation, since a seat's epoch is journaled before any
// config frame carries its session.
type admission struct {
	p        *peer
	register bool
	slot     int    // hello: the seat, -1 for a stranger
	ids      []int  // the LP set presented, sorted
	key      string // lpKey(ids)
	recvSeq  uint64 // hello: the worker's receive watermark
}

// admit is the one place connections are accepted. It returns the next
// connection that opens with a register or hello frame, and closes the
// ones that die, stall or say anything else first: under a faulty
// network the same worker simply dials again. A non-zero deadline
// bounds the wait.
func (c *Coordinator) admit(s *session, deadline time.Time) (*admission, error) {
	if !deadline.IsZero() && armAccept(s.ln, deadline) {
		defer armAccept(s.ln, time.Time{})
	}
	for {
		wait := c.timeout()
		if !deadline.IsZero() {
			left := deadline.Sub(s.env.now())
			if left <= 0 {
				return nil, os.ErrDeadlineExceeded
			}
			wait = min(wait, left)
		}
		conn, err := s.ln.Accept()
		if err != nil {
			return nil, err
		}
		p := newPeer(s.env, conn)
		p.writeTimeout = c.timeout()
		f, _, err := p.recvRaw(wait)
		if err != nil || (f.Kind != frameRegister && f.Kind != frameHello) {
			p.close()
			continue
		}
		a := &admission{p: p, register: f.Kind == frameRegister, slot: -1, ids: slices.Clone(f.LPs), recvSeq: f.RecvSeq}
		slices.Sort(a.ids)
		a.key = lpKey(a.ids)
		for wi := range s.ctl.slots {
			if !a.register && s.ctl.slots[wi].lps != nil && c.sessionOf(s, wi) == f.Session {
				a.slot = wi
			}
		}
		return a, nil
	}
}

// sessionOf is the session id of seat wi's current incarnation.
func (c *Coordinator) sessionOf(s *session, wi int) uint64 {
	return c.sessionID(wi, s.ctl.slots[wi].epoch)
}

// matchSeat finds the seat a worker presenting LP-set key belongs on:
// one whose live or registration-time set it is (a relaunched worker
// only knows its static command line, whatever migration did since),
// an empty seat before a taken one. With claim set, a key no seat knows
// takes the first blank seat — registration for a fresh run.
func (s *session) matchSeat(key string, claim bool) int {
	taken, blank := -1, -1
	for wi := range s.ctl.slots {
		sl := &s.ctl.slots[wi]
		switch {
		case sl.lps == nil:
			if blank < 0 {
				blank = wi
			}
		case sl.regKey != key && lpKey(sl.lps) != key:
		case s.links[wi] == nil:
			return wi
		case taken < 0:
			taken = wi
		}
	}
	if taken < 0 && claim {
		return blank
	}
	return taken
}

// fill seats a worker on every seat, then configures the newcomers. A
// register takes the seat matchSeat gives it, under a new epoch; a
// hello for an empty seat is a worker that outlived the previous
// coordinator and is re-adopted in place. A seat whose connection has
// died meanwhile is empty again; a register for one whose connection is
// alive is two workers claiming one LP set, a configuration error worth
// failing loudly. Config frames go out only once the cluster is
// complete and its LP sets partition the run: a worker that waits past
// connectWait registers again, as does one whose config died
// on the wire, which resumeSlot redoes on the same session. atTip: every
// seat was re-adopted holding the control state's barrier.
func (c *Coordinator) fill(s *session) (atTip bool, err error) {
	atTip = true
	newcomer := make([]bool, len(s.links))
	for filled := 0; filled < len(s.links); {
		a, err := c.admit(s, time.Time{})
		if err != nil {
			return false, err
		}
		wi := a.slot
		if a.register {
			wi = s.matchSeat(a.key, true)
		}
		if wi < 0 {
			a.p.close() // nobody's seat; its process will give up on its own
			continue
		}
		if l := s.links[wi]; l != nil {
			if !l.p.dead() {
				a.p.close()
				if a.register {
					return false, fmt.Errorf("distsim: LP set %s registered by two live workers", a.key)
				}
				continue
			}
			l.close()
			s.links[wi] = nil
			filled--
		}
		if newcomer[wi] = a.register; a.register {
			atTip = false
			if err := c.seat(s, wi, a); err != nil {
				return false, err
			}
		} else {
			var ok bool
			if s.links[wi], ok = c.readopt(s, wi, a); s.links[wi] == nil {
				continue
			}
			atTip = atTip && ok
		}
		filled++
	}
	if err := s.ctl.index(); err != nil {
		return false, fmt.Errorf("distsim: registered LP sets do not partition the run: %v", err)
	}
	for wi := range s.links {
		if !newcomer[wi] {
			continue
		}
		if err := c.sendSlot(s, wi, c.configFrame(c.sessionOf(s, wi))); err != nil {
			return false, err
		}
	}
	return atTip, nil
}

// seat puts the fresh worker process behind a on seat wi under a new
// epoch, journaled before any config frame carries the session derived
// from it, so a restart can always tell this worker from its
// predecessor.
func (c *Coordinator) seat(s *session, wi int, a *admission) error {
	s.ctl.reseat(wi, a.ids)
	s.links[wi] = newLink(a.p)
	return s.journal.reseat(wi, a.ids)
}

// readopt runs the re-adoption handshake with the surviving worker
// behind a: coord-hello out, readopt (LP set, last executed window)
// back. Both sides restart the sequence space from zero on a fresh
// link; anything the old link retained is re-derivable (the journal
// re-sends windows, the worker replays its done). ok: the worker holds
// the seat's LP set at the control state's barrier, or the one window
// past it the journal can trail by. One that does not (say, a migration
// that committed on the workers with its record still un-durable) is
// seated all the same, to carry the restore of the rollback it forces.
func (c *Coordinator) readopt(s *session, wi int, a *admission) (l *link, ok bool) {
	var t0 int64
	if c.Obs != nil {
		t0 = obs.Now()
	}
	if err := a.p.sendRaw(&frame{Kind: frameCoordHello, Session: c.sessionOf(s, wi)}, 0); err != nil {
		a.p.close()
		return nil, false
	}
	rf, _, err := a.p.recvRaw(c.timeout())
	if err != nil || rf.Kind != frameReadopt {
		a.p.close()
		return nil, false
	}
	c.Readopted++
	if c.Obs != nil {
		c.Obs.span(obs.KindReadopt, t0, obs.Now()-t0, uint64(wi), s.ctl.clock)
	}
	return newLink(a.p), slices.Equal(a.ids, s.ctl.slots[wi].lps) &&
		(rf.WinSeq == s.ctl.windows || rf.WinSeq == s.ctl.windows+1)
}

// rebind moves seat wi's session onto the connection behind a, after
// greeting the worker with greet (whose RecvSeq is also the ack): both
// sides replay the sequenced frames the other never processed and the
// simulation state never rolls back.
func (c *Coordinator) rebind(s *session, wi int, a *admission, greet *frame) bool {
	if err := a.p.sendRaw(greet, greet.RecvSeq); err != nil {
		a.p.close()
		return false
	}
	if err := s.links[wi].rebind(a.p, a.recvSeq); err != nil {
		// Replay died on the fresh connection; the worker will notice
		// and dial again.
		return false
	}
	c.Reconnects++
	if c.Obs != nil {
		c.Obs.rec.Record(obs.Span{Wall: obs.Now(), Seq: uint64(wi), Kind: obs.KindResume})
	}
	return true
}

// resumeHello answers a hello for seat a.slot's live session.
func (c *Coordinator) resumeHello(s *session, a *admission) bool {
	return c.rebind(s, a.slot, a, &frame{Kind: frameResume, RecvSeq: s.links[a.slot].recvSeq})
}

// rollbackTo is the one way the cluster returns to a cut: every worker
// — survivors included; awaitRestored drains what a crashed window left
// in flight — restores its snapshot, which reconciles its LP set to the
// checkpointed assignment, and the control state is reset to the cut:
// clock, all three counters, LP sets, owner, pending. Re-executed
// windows are then bit-identical to an uninterrupted run's. The reset
// is journaled, so replay need not understand checkpoints.
func (c *Coordinator) rollbackTo(s *session, ck *clusterCheckpoint) error {
	for wi := range s.links {
		if err := c.sendSlot(s, wi, &frame{Kind: frameRestore, Data: ck.snaps[wi]}); err != nil {
			return err
		}
	}
	for wi := range s.links {
		if err := c.awaitRestored(s, wi); err != nil {
			return err
		}
	}
	if err := s.ctl.reset(ck.cut); err != nil {
		return fmt.Errorf("distsim: rollback: %v", err)
	}
	// Load signals from the rolled-back windows are stale; replan fresh.
	for i := range s.loads {
		s.loads[i].Events = 0
		s.loads[i].BusyNs = 0
	}
	return s.journal.reset(ck.cut)
}

// bindObs exposes the current per-slot link counters to the cluster
// snapshot endpoint; re-run whenever a slot's link is replaced.
func (s *session) bindObs(c *Coordinator) {
	if c.Obs == nil {
		return
	}
	ws := make([]*WireStats, len(s.links))
	for i, l := range s.links {
		ws[i] = l.stats
	}
	c.Obs.bind(ws)
}

// sendSlot sends a sequenced frame to a slot, transparently riding out
// a broken connection: the frame is retained before the write, so a
// successful resume replays it and nothing needs re-sending.
func (c *Coordinator) sendSlot(s *session, wi int, f *frame) error {
	if err := s.links[wi].send(f); err != nil {
		if rerr := c.resumeSlot(s, wi, err); rerr != nil {
			return &slotError{wi, rerr}
		}
	}
	return nil
}

// recvFrame receives the next non-heartbeat frame on a link under the
// configured deadline (heartbeats re-arm it, so a slow-but-alive
// worker is never declared dead). It is resume-free: it reports
// transport failures and stalls to the caller, who owns the healing.
//
// Heartbeats double as loss detectors: each carries the worker's
// progress watermarks. A beat proving the worker still hasn't seen a
// frame we sent (our retention is non-empty even after its ack pruned
// it) or claims sequenced sends we never received (TCP ordering: a
// frame written before the beat would have arrived before it) means a
// frame died between the endpoints while both stayed healthy — the one
// failure mode a per-frame deadline cannot see, because the beats
// themselves keep re-arming it. A single stale beat can race the frame
// it is reporting on (the heartbeat ticker snapshots watermarks
// concurrently with the serve loop), so only a run of them triggers
// the forced resume.
func (c *Coordinator) recvFrame(l *link) (*frame, error) {
	stale := 0
	for {
		f, err := l.recv(c.timeout())
		if err != nil {
			return nil, err
		}
		switch f.Kind {
		case frameHeartbeat:
			if len(l.retained) > 0 || f.SendSeq > l.recvSeq {
				if stale++; stale >= staleBeats {
					return nil, fmt.Errorf("distsim: worker alive but stalled (unacked %d, claims sent %d, got %d)",
						len(l.retained), f.SendSeq, l.recvSeq)
				}
			} else {
				stale = 0
			}
			continue
		case frameHello, frameRegister, frameReadopt:
			// Stray hello/register/readopt frames are duplicated handshake
			// traffic left in the read buffer by a faulty network — noise,
			// not protocol.
			continue
		}
		return f, nil
	}
}

// recvSlot is recvFrame plus healing: transport failures and stalls
// resume the slot's session and retry. It serves the serial phases
// (registration redo, restore, shutdown) and exchange's repair path.
func (c *Coordinator) recvSlot(s *session, wi int) (*frame, error) {
	for {
		f, err := c.recvFrame(s.links[wi])
		if err == nil {
			return f, nil
		}
		if rerr := c.resumeSlot(s, wi, err); rerr != nil {
			return nil, &slotError{wi, rerr}
		}
	}
}

// resumeSlot holds slot wi's seat open for a session resume after a
// transport failure, admitting connections until the reconnect window
// closes. A hello for a live session rebinds that seat's link (slot wi
// or any other — concurrent failures heal in whatever order workers
// redial). A register is a worker that never got (or never acted on)
// its config: if its seat's conversation is still fully replayable the
// handshake is redone on the same session — whichever seat that is,
// because under concurrent failures another slot's config can die while
// this one resumes, and parking that redoable worker would abort a heal
// both sides could finish. Otherwise the worker process lost its
// session: the connection is parked for rollback recovery and the
// original failure is surfaced.
func (c *Coordinator) resumeSlot(s *session, wi int, cause error) error {
	if c.Reconnects-s.resumed >= resumesPerBarrier {
		return cause // a wire that never lets this barrier finish
	}
	s.links[wi].close()
	deadline := after(s.env, resumeWait(c.timeout()))
	for {
		a, err := c.admit(s, deadline)
		if err != nil {
			return cause // window closed (or listener gone)
		}
		healed := false
		switch {
		case a.register:
			slot := s.matchSeat(a.key, false)
			if slot < 0 || !s.links[slot].redoable() {
				s.parked = a
				return cause
			}
			healed = c.rebind(s, slot, a, c.configFrame(c.sessionOf(s, slot))) && slot == wi
		case a.slot >= 0:
			healed = c.resumeHello(s, a) && a.slot == wi
		default:
			a.p.close() // stale incarnation
		}
		if healed {
			return nil
		}
	}
}

// runWindows executes lookahead windows from the control clock to the
// horizon. It returns nil when the horizon is reached, a *slotError
// when a worker fails (recoverable), or a plain error on protocol
// violations (terminal).
//
// Each barrier is one exchange: every window frame goes out, then every
// done frame comes back. The merge then orders the
// produced events, commits the window — a control transition, made
// durable by its journal record — and uses the piggybacked next-event
// times to jump the clock over windows no LP has work in.
func (c *Coordinator) runWindows(s *session) error {
	ctl := s.ctl
	for ctl.clock < ctl.horizon {
		// seq is the barrier sequence: workers stamp their busy spans with
		// it, which is what aligns their tracks onto the coordinator's
		// timeline (obs.MergeTracks).
		end, seq := ctl.windowEnd(), ctl.windows+1
		err := c.exchange(s, obs.KindWindowSend, seq, func(wi int) *frame {
			s.wframes[wi] = frame{Kind: frameWindow, End: end, Events: ctl.slots[wi].pending, WinSeq: seq}
			return &s.wframes[wi]
		})
		if err != nil {
			return err
		}
		if c.crashBeforeBarrier > 0 && seq >= c.crashBeforeBarrier {
			// Every worker has executed this window, but the journal has
			// not recorded it: a restart must re-send it and the workers
			// must replay their stored done frames.
			return errCrashHook
		}
		// Merge. next starts at the workers' piggybacked minima and is
		// tightened by the produced events below.
		next := math.Inf(1)
		produced := s.produced[:0]
		for wi, f := range s.done {
			if f.Kind != frameDone {
				return fmt.Errorf("distsim: expected done, got %s (%s)", f.Kind, f.Err)
			}
			// Piggybacked obs snapshots fold here, before the next read
			// on the link can overwrite the payload they alias.
			if c.Obs != nil && len(f.Obs) > 0 {
				if err := c.Obs.fold(wi, f.Obs); err != nil {
					return err
				}
			}
			// Per-LP load deltas accumulate until the next planning round.
			if s.loads != nil {
				for i := range f.Loads {
					if lp := f.Loads[i].LP; lp >= 0 && lp < len(s.loads) {
						s.loads[lp].Events += f.Loads[i].Events
						s.loads[lp].BusyNs += f.Loads[i].BusyNs
					}
				}
			}
			produced = append(produced, f.Events...)
			if f.Next < next {
				next = f.Next
			}
		}
		// Deterministic global order: (sending LP, per-sender seq).
		slices.SortFunc(produced, winsync.EventOrder)
		// Event payloads are views into per-link read buffers that the
		// next frame on the link overwrites; copy them into the arena,
		// which lives until these events are marshalled into the next
		// window's frames.
		need := 0
		for i := range produced {
			need += len(produced[i].Data)
		}
		if cap(s.arena) < need {
			s.arena = make([]byte, 0, need)
		}
		s.arena = s.arena[:0]
		for i := range produced {
			ev := &produced[i]
			if len(ev.Data) > 0 {
				off := len(s.arena)
				s.arena = append(s.arena, ev.Data...)
				ev.Data = s.arena[off:len(s.arena):len(s.arena)]
			}
			if ev.Time < next {
				next = ev.Time
			}
		}
		s.produced = produced
		// A frame carrying an unknown LP fails the run here, before any
		// routing effect.
		if err := ctl.commit(produced); err != nil {
			return fmt.Errorf("distsim: window %d: %v", seq, err)
		}
		s.resumed = c.Reconnects
		// The barrier commits when its journal record is durable: the
		// next window's frames only go out on the next iteration, so a
		// restarted coordinator replaying to this record finds every
		// worker at most one window ahead of it.
		if err := s.journal.barrier(seq, produced); err != nil {
			return err
		}
		if s.journal != nil && c.crashAfterBarrier > 0 && seq >= c.crashAfterBarrier {
			return errCrashHook
		}
		// Rebalance before any checkpoint this window, so the checkpoint
		// captures the post-migration assignment and snapshots.
		if c.Rebalance != nil && seq%uint64(c.rebalanceEvery()) == 0 && ctl.clock < ctl.horizon {
			if err := c.rebalance(s); err != nil {
				return err
			}
		}
		if every := c.every(); every > 0 && seq%uint64(every) == 0 && ctl.clock < ctl.horizon {
			if err := c.checkpoint(s); err != nil {
				return err
			}
		}
		// Nothing anywhere in the federation is due before next: worker
		// engines and local buffers via the piggybacked minima, routed
		// events via the merge above. The windows before it would execute
		// nothing and draw nothing, so the clock jumps them without a
		// barrier round trip.
		if skipped := ctl.skip(next); skipped > 0 {
			if err := s.journal.skip(next); err != nil {
				return err
			}
			if c.Obs != nil {
				// A skip mark, Seq = how many windows were jumped.
				c.Obs.rec.Record(obs.Span{Wall: obs.Now(), Time: ctl.clock, Seq: skipped, Kind: obs.KindSkip})
			}
		}
		c.publish(s)
	}
	return nil
}

// rebalance runs one planning round: the accumulated per-LP loads go
// to the policy, and the moves it plans execute serially as live
// migrations at the current (quiescent) barrier. Loads reset either
// way, so each round reacts to fresh signals, not the whole history.
func (c *Coordinator) rebalance(s *session) error {
	moves := c.Rebalance.Plan(s.loads, s.ctl.owner, len(s.links))
	for i := range s.loads {
		s.loads[i].Events = 0
		s.loads[i].BusyNs = 0
	}
	for _, mv := range moves {
		if err := c.migrate(s, mv); err != nil {
			return err
		}
	}
	return nil
}

// migrate executes one live LP migration: the donor serializes and
// drops the LP (engine snapshot, model state, undelivered local
// events), the receiver installs it, and the control state commits the
// new assignment. All four frames are sequenced, so a connection blip
// mid-migration heals by session resume and replay like any other
// frame; a worker death rolls the whole federation back to the last
// checkpoint, whose restore reconciles every worker to the checkpointed
// assignment.
func (c *Coordinator) migrate(s *session, mv partition.Move) error {
	if err := s.ctl.checkMove(mv.LP, mv.From, mv.To); err != nil {
		return fmt.Errorf("distsim: policy %s planned an %v", c.Rebalance.Name(), err)
	}
	var t0 int64
	if c.Obs != nil {
		t0 = obs.Now()
	}
	if err := c.sendSlot(s, mv.From, &frame{Kind: frameMigrateOut, LPs: []int{mv.LP}}); err != nil {
		return err
	}
	f, err := c.recvSlot(s, mv.From)
	if err != nil {
		return err
	}
	if f.Kind != frameLPState {
		return fmt.Errorf("distsim: expected lp-state, got %s", f.Kind)
	}
	if f.Err != "" {
		// Like a snapshot failure: a model that cannot serialize the LP
		// is a bug recovery cannot fix.
		return fmt.Errorf("distsim: worker %d cannot donate LP %d: %s", mv.From, mv.LP, f.Err)
	}
	if err := c.sendSlot(s, mv.To, &frame{Kind: frameMigrateIn, LPs: []int{mv.LP}, Data: f.Data}); err != nil {
		return err
	}
	ack, err := c.recvSlot(s, mv.To)
	if err != nil {
		return err
	}
	if ack.Kind != frameMigrated {
		return fmt.Errorf("distsim: expected migrated, got %s", ack.Kind)
	}
	if err := s.ctl.migrate(mv.LP, mv.From, mv.To); err != nil {
		return err
	}
	c.Migrations++
	if err := s.journal.migration(mv.LP, mv.From, mv.To); err != nil {
		return err
	}
	if c.Obs != nil {
		c.Obs.span(obs.KindMigrate, t0, obs.Now()-t0, uint64(mv.LP), s.ctl.clock)
	}
	return nil
}

// checkpoint takes a cluster checkpoint at the current window barrier:
// one snapshot per worker plus the control cut. The snapshot round
// trip fans out like a window barrier.
func (c *Coordinator) checkpoint(s *session) error {
	if err := c.exchange(s, obs.KindCheckpoint, s.ctl.windows, func(int) *frame { return &frame{Kind: frameCheckpoint} }); err != nil {
		return err
	}
	snaps := make([][]byte, len(s.links))
	for wi, f := range s.done {
		if f.Kind != frameSnapshot {
			return fmt.Errorf("distsim: expected snapshot, got %s", f.Kind)
		}
		if f.Err != "" {
			// A snapshot failure is a model bug (unserializable events),
			// not a crash: recovery cannot fix it, so fail the run.
			return fmt.Errorf("distsim: worker %d cannot snapshot: %s", wi, f.Err)
		}
		snaps[wi] = f.Data
	}
	s.ckpt = &clusterCheckpoint{cut: s.ctl.cut(), snaps: snaps}
	if c.CheckpointPath != "" {
		if err := s.ckpt.save(c.CheckpointPath, s.ctl); err != nil {
			return fmt.Errorf("distsim: persisting checkpoint: %w", err)
		}
		// The ref is journaled only once the file itself is durable: a
		// restart holds whatever file it finds against it.
		return s.journal.checkpointed(s.ctl.windows)
	}
	return nil
}

// recoverSlot replaces a dead worker and rolls the whole federation
// back to the last cluster checkpoint. The replacement registers the
// LP set the seat holds now or the one its worker last registered — a
// relaunched worker only knows its static command line; whatever it
// brings, the rollback's restore reconciles it to the checkpointed
// assignment. Seating it bumps the seat's epoch, so a zombie of the old
// incarnation can never resume into the run.
func (c *Coordinator) recoverSlot(s *session, dead int) error {
	var t0 int64
	if c.Obs != nil {
		t0 = obs.Now()
	}
	s.links[dead].close()
	// The replacement may already have knocked while the seat was held
	// open for a resume.
	a := s.parked
	s.parked = nil
	deadline := after(s.env, c.timeout())
	for a == nil {
		next, err := c.admit(s, deadline)
		switch {
		case err != nil:
			return fmt.Errorf("waiting for replacement worker: %w", err)
		case next.register:
			a = next
		case next.slot >= 0 && next.slot != dead:
			c.resumeHello(s, next) // a survivor healing its own link meanwhile
		default:
			next.p.close()
		}
	}
	if sl := &s.ctl.slots[dead]; a.key != lpKey(sl.lps) && a.key != sl.regKey {
		a.p.close()
		return fmt.Errorf("replacement worker registers LPs %v, dead worker owned %v", a.ids, sl.lps)
	}
	if err := c.seat(s, dead, a); err != nil {
		return err
	}
	if err := s.links[dead].send(c.configFrame(c.sessionOf(s, dead))); err != nil {
		return err
	}
	if err := c.rollbackTo(s, s.ckpt); err != nil {
		return err
	}
	s.bindObs(c)
	if c.Obs != nil {
		c.Obs.rec.Record(obs.Span{Wall: t0, Dur: obs.Now() - t0, Time: s.ctl.clock,
			Seq: uint64(dead), Kind: obs.KindRecovery})
	}
	return nil
}

// awaitRestored reads frames until the slot acknowledges its restore,
// draining whatever the crashed window left in flight (done frames,
// snapshot replies, heartbeats).
func (c *Coordinator) awaitRestored(s *session, wi int) error {
	for {
		f, err := c.recvSlot(s, wi)
		if err != nil {
			return err
		}
		switch f.Kind {
		case frameRestored:
			return nil
		case frameDone, frameSnapshot, frameLPState, frameMigrated:
			// stale (a crash can interrupt a migration round trip); drop
		default:
			return fmt.Errorf("distsim: expected restored, got %s", f.Kind)
		}
	}
}

// configFrame builds the run-parameter frame for one slot. When
// cluster observability is enabled the obs cadence rides along so
// workers instrument themselves without any per-worker flag plumbing.
func (c *Coordinator) configFrame(session uint64) *frame {
	f := &frame{
		Kind: frameConfig, Lookahead: c.Lookahead, Horizon: c.Horizon, Seed: c.Seed,
		Session: session, TimeoutSec: c.timeout().Seconds(),
	}
	if c.Obs != nil {
		f.ObsEvery = c.Obs.every
		f.ObsSpans = c.Obs.spanCap
	}
	if c.Rebalance != nil {
		f.RebalanceEvery = c.rebalanceEvery()
	}
	return f
}
