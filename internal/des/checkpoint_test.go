package des

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/obs"
)

// ckptModel is a small self-rescheduling op-based workload exercising
// everything a snapshot must carry: random draws from the engine
// stream, op arguments, multiple pending events per step, and canceled
// tombstones sitting in the queue.
type ckptModel struct {
	e     *Engine
	step  Op
	decoy Op
	count uint64
	acc   float64
	limit uint64
}

func newCkptModel(e *Engine, limit uint64) *ckptModel {
	m := &ckptModel{e: e, limit: limit}
	m.step = e.RegisterOp("test.step", m.onStep)
	m.decoy = e.RegisterOp("test.decoy", func([]byte) {})
	return m
}

func (m *ckptModel) start(jobs int) {
	for i := 0; i < jobs; i++ {
		var arg [8]byte
		binary.BigEndian.PutUint64(arg[:], uint64(i))
		m.e.ScheduleOp(m.e.Rand().Exp(1), m.step, arg[:])
	}
}

func (m *ckptModel) onStep(arg []byte) {
	m.count++
	id := binary.BigEndian.Uint64(arg)
	m.acc += m.e.Rand().Float64() * float64(id+1)
	if m.count >= m.limit {
		return
	}
	// A decoy scheduled and immediately canceled: its tombstone stays
	// queued until its due time, so checkpoints taken in between must
	// round-trip canceled records.
	t := m.e.ScheduleOp(5+m.e.Rand().Float64(), m.decoy, nil)
	t.Cancel()
	var next [8]byte
	binary.BigEndian.PutUint64(next[:], id)
	m.e.ScheduleOp(m.e.Rand().Exp(1), m.step, next[:])
}

var _ checkpoint.Checkpointable = (*Engine)(nil)

// snapshot returns e's state as AppendState writes it.
func snapshot(e *Engine) ([]byte, error) {
	var enc checkpoint.Enc
	err := e.AppendState(&enc)
	return enc.Bytes(), err
}

// restore restores e from a whole snapshot, refusing trailing bytes as
// the owner of a snapshot file does.
func restore(e *Engine, snap []byte) error {
	d := checkpoint.NewDec(snap)
	if err := e.RestoreState(d); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%d trailing bytes", d.Remaining())
	}
	return nil
}

type traceEntry struct {
	Time  float64
	Seq   uint64
	Label string
}

func traceHook(sink *[]traceEntry) obs.Hook {
	return func(ev obs.Event) {
		*sink = append(*sink, traceEntry{Time: ev.Time, Seq: ev.Seq, Label: ev.Label})
	}
}

// TestResumeBitIdenticalAllKinds is the flagship determinism property:
// a run checkpointed at t=H/2 and restored into a fresh engine produces
// — event for event (time, sequence number, label) — the same execution
// trace and final statistics as a run that was never interrupted. The
// engine's one event list is the heap, so that is the one subtest.
func TestResumeBitIdenticalAllKinds(t *testing.T) {
	t.Run("heap", testResumeBitIdentical)
}

func testResumeBitIdentical(t *testing.T) {
	const (
		H    = 40.0
		jobs = 16
		seed = 97
	)
	// Straight run: full trace, final stats.
	var refTrace []traceEntry
	refE := NewEngine(WithSeed(seed))
	refE.SetObserver(Observer{Hook: traceHook(&refTrace)})
	refM := newCkptModel(refE, 1<<40)
	refM.start(jobs)
	refEnd := refE.RunUntil(H)
	refStats := refE.Stats()

	// Interrupted run: advance to H/2, checkpoint, restore into a
	// fresh engine, finish there.
	firstE := NewEngine(WithSeed(seed))
	firstM := newCkptModel(firstE, 1<<40)
	firstM.start(jobs)
	firstE.RunUntil(H / 2)
	snap, err := snapshot(firstE)
	if err != nil {
		t.Fatal(err)
	}

	var resTrace []traceEntry
	resE := NewEngine(WithSeed(seed + 1000)) // deliberately different seed: RestoreState overrides
	resE.SetObserver(Observer{Hook: traceHook(&resTrace)})
	resM := newCkptModel(resE, 1<<40)
	resM.start(jobs) // initial events must be discarded by RestoreState
	if err := restore(resE, snap); err != nil {
		t.Fatal(err)
	}
	if got := resE.Now(); got != firstE.Now() {
		t.Fatalf("restored clock %v, want %v", got, firstE.Now())
	}
	resEnd := resE.RunUntil(H)
	resStats := resE.Stats()

	if resEnd != refEnd {
		t.Fatalf("end time %v, want %v", resEnd, refEnd)
	}
	if resStats != refStats {
		t.Fatalf("stats %+v, want %+v", resStats, refStats)
	}
	// The resumed trace must equal the reference trace's second
	// half, entry for entry.
	var refTail []traceEntry
	for _, te := range refTrace {
		if te.Time > H/2 {
			refTail = append(refTail, te)
		}
	}
	if len(resTrace) != len(refTail) {
		t.Fatalf("resumed trace has %d events, reference tail has %d", len(resTrace), len(refTail))
	}
	for i := range refTail {
		if resTrace[i] != refTail[i] {
			t.Fatalf("trace diverges at %d: %+v vs %+v", i, resTrace[i], refTail[i])
		}
	}
	// Model accumulators must match as well (random draws aligned).
	if resM.count+countAt(refTrace, H/2) != refM.count {
		t.Fatalf("model counts: resumed %d + first-half %d != straight %d",
			resM.count, countAt(refTrace, H/2), refM.count)
	}
	if resM.acc == 0 {
		t.Fatal("resumed model did no work")
	}
}

// countAt counts reference step events at or before the split time.
func countAt(trace []traceEntry, split float64) uint64 {
	var n uint64
	for _, te := range trace {
		if te.Time <= split && te.Label == "test.step" {
			n++
		}
	}
	return n
}

// TestCheckpointSnapshotStable pins that checkpointing is
// non-destructive and deterministic: two consecutive snapshots of the
// same engine are byte-identical, and the run continues unperturbed.
func TestCheckpointSnapshotStable(t *testing.T) {
	e := NewEngine(WithSeed(5))
	m := newCkptModel(e, 1<<40)
	m.start(8)
	e.RunUntil(10)

	a, err := snapshot(e)
	if err != nil {
		t.Fatal(err)
	}
	b, err := snapshot(e)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("checkpoint is not deterministic")
	}

	// Continuing after a checkpoint matches a run that never
	// checkpointed.
	ref := NewEngine(WithSeed(5))
	rm := newCkptModel(ref, 1<<40)
	rm.start(8)
	ref.RunUntil(20)
	e.RunUntil(20)
	if e.Stats() != ref.Stats() {
		t.Fatalf("post-checkpoint run diverged: %+v vs %+v", e.Stats(), ref.Stats())
	}
}

func TestCheckpointRejectsClosures(t *testing.T) {
	e := NewEngine()
	e.Schedule(1.5, func() {})
	if snap, err := snapshot(e); err == nil || !strings.Contains(err.Error(), "t=1.5") || len(snap) != 0 {
		t.Fatalf("closure event serialized: %v, %d bytes written", err, len(snap))
	}

	// A canceled closure is fine: it never executes.
	e2 := NewEngine()
	tm := e2.Schedule(1, func() {})
	tm.Cancel()
	snap, err := snapshot(e2)
	if err != nil {
		t.Fatal(err)
	}
	e3 := NewEngine()
	if err := restore(e3, snap); err != nil {
		t.Fatal(err)
	}
	e3.Run()
	if got := e3.Stats().Canceled; got != 1 {
		t.Fatalf("canceled = %d, want 1", got)
	}
}

func TestRestoreRejectsUnknownOp(t *testing.T) {
	e := NewEngine()
	op := e.RegisterOp("only.here", func([]byte) {})
	e.ScheduleOp(1, op, nil)
	snap, err := snapshot(e)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewEngine()
	if err := restore(fresh, snap); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestCheckpointRejectsLiveProcesses(t *testing.T) {
	e := NewEngine()
	e.Spawn("sleeper", func(p *Process) {
		p.Hold(100)
	})
	e.RunUntil(1)
	if _, err := snapshot(e); err == nil {
		t.Fatal("live process engine serialized")
	}
	// A process whose des:start is pending is live too.
	e2 := NewEngine()
	e2.SpawnAt("late", 5, func(*Process) {})
	if _, err := snapshot(e2); err == nil {
		t.Fatal("engine with a pending process start serialized")
	}
}

// TestCheckpointRefusesKilledProcessLeftovers: a killed process leaves
// its pending resume (or, killed before it started, its start) in the
// queue with no live process counted. Writing it would give a snapshot
// no fresh engine restores, so AppendState refuses it, naming the op
// and its time.
func TestCheckpointRefusesKilledProcessLeftovers(t *testing.T) {
	held := NewEngine()
	p := held.Spawn("sleeper", func(p *Process) { p.Hold(100) })
	held.RunUntil(1)
	p.Kill()
	early := NewEngine()
	early.SpawnAt("late", 5, func(*Process) {}).Kill()
	for _, c := range []struct {
		name, want string
		e          *Engine
	}{
		{"killed while holding", `t=100 is op "des:resume"`, held},
		{"killed before its start", `t=5 is op "des:start"`, early},
	} {
		if n := c.e.LiveProcesses(); n != 0 || c.e.QueueLen() != 1 {
			t.Fatalf("%s: %d live processes, %d pending events; want 0 and 1", c.name, n, c.e.QueueLen())
		}
		var enc checkpoint.Enc
		err := c.e.AppendState(&enc)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: AppendState error %v, want one naming %s", c.name, err, c.want)
		}
		if len(enc.Bytes()) != 0 {
			t.Errorf("%s: a refused AppendState wrote %d bytes", c.name, len(enc.Bytes()))
		}
	}
}

func TestOpValidation(t *testing.T) {
	e := NewEngine()
	for name, fn := range map[string]func(){
		"zero op":       func() { e.ScheduleOp(1, Op{}, nil) },
		"empty name":    func() { e.RegisterOp("", func([]byte) {}) },
		"nil fn":        func() { e.RegisterOp("x", nil) },
		"foreign index": func() { e.ScheduleOp(1, Op{idx: 99}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
	// Duplicate registration panics.
	e.RegisterOp("dup", func([]byte) {})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate op name: no panic")
			}
		}()
		e.RegisterOp("dup", func([]byte) {})
	}()
}

func TestScheduleOpZeroAlloc(t *testing.T) {
	// The op path is the allocation-free alternative to closures: a
	// steady-state op schedule/execute cycle must not allocate.
	e := NewEngine()
	var op Op
	op = e.RegisterOp("tick", func([]byte) { e.ScheduleOp(1, op, nil) })
	e.ScheduleOp(1, op, nil)
	e.RunUntil(64) // warm the free list
	allocs := testing.AllocsPerRun(100, func() {
		e.RunUntil(e.Now() + 8)
	})
	if allocs > 0 {
		t.Fatalf("op hot path allocates %.1f/run", allocs)
	}
}

// TestRestoreStateRefusesCorruptState: an event count no payload could
// hold (once a fatal out-of-memory: the count sized an allocation
// unchecked), events out of dequeue order and a live event with no op
// are refused, and the engine is left as it was.
func TestRestoreStateRefusesCorruptState(t *testing.T) {
	e := NewEngine(WithSeed(3))
	newCkptModel(e, 1<<40).start(4)
	e.RunUntil(5)
	before, err := snapshot(e)
	if err != nil {
		t.Fatal(err)
	}
	// A state with no events ends in the event count 0.
	empty, err := snapshot(newCkptModel(NewEngine(), 0).e)
	if err != nil {
		t.Fatal(err)
	}
	header := empty[:len(empty)-1]
	event := func(enc *checkpoint.Enc, t float64, seq uint64, op string) {
		enc.F64(t)
		enc.U64(seq)
		enc.F64(0)
		enc.Bool(false)
		enc.Str(op)
		enc.Raw(nil)
	}
	var bomb, disordered, noOp checkpoint.Enc
	bomb.U64(1 << 40)
	disordered.Int(2)
	event(&disordered, 2, 1, "test.step")
	event(&disordered, 1, 2, "test.step")
	noOp.Int(1)
	event(&noOp, 1, 1, "")
	for _, c := range []struct {
		name string
		tail *checkpoint.Enc
	}{{"event count 1<<40", &bomb}, {"events out of order", &disordered}, {"live event without an op", &noOp}} {
		if err := restore(e, append(slices.Clone(header), c.tail.Bytes()...)); err == nil {
			t.Fatalf("%s accepted", c.name)
		}
		if after, err := snapshot(e); err != nil || !bytes.Equal(after, before) {
			t.Fatalf("refusing %s changed the engine (%v)", c.name, err)
		}
	}
}

// TestDerivedStreamResumesMidSequence pins the contract model-level
// checkpointing (e.g. faults.Injector) depends on: Engine.AppendState
// carries the engine's own stream but NOT streams handed out by
// Engine.Stream — Derive reconstructs a stream at its origin, so a
// model that draws from a derived stream must marshal that stream's
// state itself to resume mid-sequence. With the state restored, the
// continued draw sequence is bit-identical to an uninterrupted one;
// with a freshly derived stream it is not.
func TestDerivedStreamResumesMidSequence(t *testing.T) {
	draws := func(n int) []float64 {
		e := NewEngine(WithSeed(42))
		src := e.Stream("model")
		out := make([]float64, n)
		for i := range out {
			out[i] = src.Float64()
		}
		return out
	}
	want := draws(20)

	e1 := NewEngine(WithSeed(42))
	src1 := e1.Stream("model")
	for i := 0; i < 10; i++ {
		src1.Float64()
	}
	state, err := src1.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// A fresh derivation replays the stream from its origin...
	e2 := NewEngine(WithSeed(42))
	src2 := e2.Stream("model")
	if got := src2.Float64(); got != want[0] {
		t.Fatalf("fresh derived stream starts at %v, want origin draw %v", got, want[0])
	}
	// ...but restoring the marshaled state continues mid-sequence.
	e3 := NewEngine(WithSeed(42))
	src3 := e3.Stream("model")
	if err := src3.UnmarshalBinary(state); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ {
		if got := src3.Float64(); got != want[i] {
			t.Fatalf("restored stream draw %d = %v, want %v", i, got, want[i])
		}
	}
}
