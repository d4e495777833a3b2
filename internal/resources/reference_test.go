package resources

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/rng"
)

// The blocking bodies as they were before each primitive got one
// continuation form with the blocking form an Await adapter over it.
// They are the reference both forms must reproduce event for event.
// (MassStorage kept its mount beside a zero-seek Disk; it is now the
// Disk's seek.)

func (c *CPU) refExecute(ops float64, done func()) {
	if ops < 0 {
		panic(fmt.Sprintf("resources: Execute(%v ops)", ops))
	}
	switch c.mode {
	case SpaceShared:
		// Run a hidden process to queue FCFS on the core slots.
		c.e.Spawn(c.name+":task", func(p *des.Process) {
			c.slots.Acquire(p, 1)
			p.Hold(ops / c.speed)
			c.slots.Release(1)
			c.completed++
			if done != nil {
				done()
			}
		})
	case TimeShared:
		c.advance()
		t := &cpuTask{remaining: ops, done: done}
		c.tasks = append(c.tasks, t)
		c.rebalance()
	}
}

func (c *CPU) refRun(p *des.Process, ops float64) {
	finished := false
	c.refExecute(ops, func() {
		finished = true
		p.Activate()
	})
	for !finished {
		p.Passivate()
	}
}

func (d *Disk) refRead(p *des.Process, bytes float64) {
	d.refIO(p, bytes)
	d.reads++
	d.bytesRead += bytes
}

func (d *Disk) refWrite(p *des.Process, bytes float64) {
	d.refIO(p, bytes)
	d.writes++
	d.bytesWritten += bytes
}

func (d *Disk) refIO(p *des.Process, bytes float64) {
	if bytes < 0 {
		panic("resources: negative I/O size")
	}
	d.channels.Acquire(p, 1)
	p.Hold(d.seek + bytes/d.bps)
	d.channels.Release(1)
}

func (m *MassStorage) refRead(p *des.Process, bytes float64) {
	m.channels.Acquire(p, 1)
	p.Hold(m.seek + bytes/m.bps)
	m.channels.Release(1)
	m.reads++
	m.bytesRead += bytes
}

func (m *MassStorage) refWrite(p *des.Process, bytes float64) {
	m.channels.Acquire(p, 1)
	p.Hold(m.seek + bytes/m.bps)
	m.channels.Release(1)
	m.writes++
	m.bytesWritten += bytes
}

func (db *Database) refQuery(p *des.Process, bytes float64) {
	if bytes < 0 {
		panic("resources: negative query size")
	}
	db.workers.Acquire(p, 1)
	p.Hold(db.queryOH)
	db.workers.Release(1)
	db.disk.refRead(p, bytes)
	db.queries++
}

// rig is one site's resources under a job mix, run in one of three
// forms: the reference process bodies, the blocking adapters, or event
// chains over the op forms.
type rig struct {
	e     *des.Engine
	farm  *CPU // space-shared
	pc    *CPU // time-shared
	disk  *Disk
	tape  *MassStorage
	db    *Database
	log   []string
	steps [][]rigStep

	// The chain form: step notes a job's step and starts its next one;
	// job j is at step at[j], and its op argument is jobs[j].
	step des.Op
	at   []int
	jobs [][]byte
}

type rigStep struct {
	kind int // 0 query, 1 disk read, 2 disk write, 3 tape read, 4 tape write, 5 farm, 6 pc
	size float64
}

const (
	formReference = iota
	formBlocking
	formChain
)

func newRig(seed uint64) *rig {
	e := des.NewEngine(des.WithSeed(seed))
	r := &rig{
		e:    e,
		farm: NewCPU(e, "farm", 2, 1e3, SpaceShared),
		pc:   NewCPU(e, "pc", 2, 1e3, TimeShared),
		disk: NewDisk(e, "disk", 1e12, 1e6, 0.01, 2),
		tape: NewMassStorage(e, "tape", 1e12, 5e5, 3, 1),
		db:   NewDatabase(e, "db", 1e12, 2e6, 0.05, 2),
	}
	src := rng.New(seed).Derive("plan")
	for j := 0; j < 60; j++ {
		n := 1 + src.Intn(4)
		steps := make([]rigStep, n)
		for i := range steps {
			steps[i] = rigStep{kind: src.Intn(7), size: float64(1 + src.Intn(4e6))}
		}
		r.steps = append(r.steps, steps)
	}
	return r
}

func (r *rig) note(j, i int) {
	r.log = append(r.log, fmt.Sprintf("job %d step %d at %x", j, i, math.Float64bits(r.e.Now())))
}

func (r *rig) block(p *des.Process, s rigStep, ref bool) {
	switch {
	case s.kind == 0 && ref:
		r.db.refQuery(p, s.size)
	case s.kind == 0:
		r.db.Query(p, s.size)
	case s.kind == 1 && ref:
		r.disk.refRead(p, s.size)
	case s.kind == 1:
		r.disk.Read(p, s.size)
	case s.kind == 2 && ref:
		r.disk.refWrite(p, s.size)
	case s.kind == 2:
		r.disk.Write(p, s.size)
	case s.kind == 3 && ref:
		r.tape.refRead(p, s.size)
	case s.kind == 3:
		r.tape.Read(p, s.size)
	case s.kind == 4 && ref:
		r.tape.refWrite(p, s.size)
	case s.kind == 4:
		r.tape.Write(p, s.size)
	case s.kind == 5 && ref:
		r.farm.refRun(p, s.size)
	case s.kind == 5:
		r.farm.Run(p, s.size)
	case s.kind == 6 && ref:
		r.pc.refRun(p, s.size)
	default:
		r.pc.Run(p, s.size)
	}
}

func (r *rig) opForm(s rigStep, op des.Op, arg []byte) {
	switch s.kind {
	case 0:
		r.db.QueryOp(s.size, op, arg)
	case 1:
		r.disk.ReadOp(s.size, op, arg)
	case 2:
		r.disk.WriteOp(s.size, op, arg)
	case 3:
		r.tape.ReadOp(s.size, op, arg)
	case 4:
		r.tape.WriteOp(s.size, op, arg)
	case 5:
		r.farm.RunOp(s.size, op, arg)
	default:
		r.pc.RunOp(s.size, op, arg)
	}
}

// chain runs job j's steps from r.at[j] on as an event chain.
func (r *rig) chain(j int) {
	if i := r.at[j]; i < len(r.steps[j]) {
		r.opForm(r.steps[j][i], r.step, r.jobs[j])
	}
}

func (r *rig) run(form int) {
	arrivals := r.e.Stream("arrivals")
	r.step = r.e.RegisterOp("rig:step", func(arg []byte) {
		j := int(arg[0])
		r.note(j, r.at[j])
		r.at[j]++
		r.chain(j)
	})
	r.at = make([]int, len(r.steps))
	at := 0.0
	for j := range r.steps {
		j := j
		at += arrivals.Exp(0.2)
		if form == formChain {
			r.jobs = append(r.jobs, []byte{byte(j)})
			r.e.Schedule(at, func() { r.chain(j) })
			continue
		}
		r.e.SpawnAt("job", at, func(p *des.Process) {
			for i, s := range r.steps[j] {
				r.block(p, s, form == formReference)
				r.note(j, i)
			}
		})
	}
	r.e.Run()
	s := r.e.Stats()
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	r.log = append(r.log, fmt.Sprintf("executed %d scheduled %d max queue %d end %x", s.Executed, s.Scheduled, s.MaxQueue, bits(r.e.Now())),
		fmt.Sprintf("cpus %d %d %x %x", r.farm.Completed(), r.pc.Completed(), bits(r.farm.Utilization()), bits(r.pc.Utilization())),
		fmt.Sprintf("disk %d %d %x %x %x", r.disk.Reads(), r.disk.Writes(), bits(r.disk.BytesRead()), bits(r.disk.BytesWritten()), bits(r.disk.Utilization())),
		fmt.Sprintf("tape %d %d %x", r.tape.Reads(), r.tape.Writes(), bits(r.tape.Utilization())),
		fmt.Sprintf("db %d %x %d", r.db.Queries(), bits(r.db.Utilization()), r.db.Disk().Reads()))
}

// TestFormsMatchProcessReference runs one contended job mix over every
// primitive in the three forms: each step of each job ends at the same
// instant in the same order, every counter agrees bit for bit, and the
// engine executes and schedules the same events.
func TestFormsMatchProcessReference(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		want := newRig(seed)
		want.run(formReference)
		for _, form := range []int{formBlocking, formChain} {
			got := newRig(seed)
			got.run(form)
			if len(got.log) != len(want.log) {
				t.Fatalf("seed %d form %d: %d log lines, reference %d", seed, form, len(got.log), len(want.log))
			}
			for i := range want.log {
				if got.log[i] != want.log[i] {
					t.Fatalf("seed %d form %d line %d: %q, reference %q", seed, form, i, got.log[i], want.log[i])
				}
			}
		}
	}
}
