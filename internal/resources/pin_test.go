package resources

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/rng"
)

// rigLog runs one site's resources under a seeded job mix, its jobs as
// processes that block on each step or as event chains over the op
// forms, and returns its log: the instant each step of each job ended,
// then the engine's and every resource's counters.
func rigLog(seed uint64, chain bool) []string {
	e := des.NewEngine(des.WithSeed(seed))
	farm := NewCPU(e, "farm", 2, 1e3, SpaceShared)
	pc := NewCPU(e, "pc", 2, 1e3, TimeShared)
	disk := NewDisk(e, "disk", 1e12, 1e6, 0.01, 2)
	tape := NewMassStorage(e, "tape", 1e12, 5e5, 3, 1)
	db := NewDatabase(e, "db", 1e12, 2e6, 0.05, 2)
	type step struct {
		kind int // 0 query, 1 disk read, 2 disk write, 3 tape read, 4 tape write, 5 farm, 6 pc
		size float64
	}
	src := rng.New(seed).Derive("plan")
	jobs := make([][]step, 60)
	for j := range jobs {
		jobs[j] = make([]step, 1+src.Intn(4))
		for i := range jobs[j] {
			jobs[j][i] = step{kind: src.Intn(7), size: float64(1 + src.Intn(4e6))}
		}
	}
	var log []string
	note := func(j, i int) {
		log = append(log, fmt.Sprintf("job %d step %d at %x", j, i, math.Float64bits(e.Now())))
	}
	start := func(s step, op des.Op, arg []byte) {
		switch s.kind {
		case 0:
			db.QueryOp(s.size, op, arg)
		case 1:
			disk.ReadOp(s.size, op, arg)
		case 2:
			disk.WriteOp(s.size, op, arg)
		case 3:
			tape.ReadOp(s.size, op, arg)
		case 4:
			tape.WriteOp(s.size, op, arg)
		case 5:
			farm.RunOp(s.size, op, arg)
		default:
			pc.RunOp(s.size, op, arg)
		}
	}
	// As a chain, job j is at step at[j]; the step op notes it and
	// starts the next one.
	arrivals := e.Stream("arrivals")
	at := make([]int, len(jobs))
	var stepped des.Op
	next := func(j int) {
		if i := at[j]; i < len(jobs[j]) {
			start(jobs[j][i], stepped, []byte{byte(j)})
		}
	}
	stepped = e.RegisterOp("rig:step", func(arg []byte) {
		j := int(arg[0])
		note(j, at[j])
		at[j]++
		next(j)
	})
	when := 0.0
	for j := range jobs {
		when += arrivals.Exp(0.2)
		if chain {
			e.Schedule(when, func() { next(j) })
			continue
		}
		// A CPU step blocks through Run, any other through an Await over
		// its op form, as Disk's and Database's blocking forms did.
		e.SpawnAt("job", when, func(p *des.Process) {
			for i, s := range jobs[j] {
				switch s.kind {
				case 5:
					farm.Run(p, s.size)
				case 6:
					pc.Run(p, s.size)
				default:
					p.Await(func(op des.Op, arg []byte) { start(s, op, arg) })
				}
				note(j, i)
			}
		})
	}
	e.Run()
	st := e.Stats()
	bits := math.Float64bits
	return append(log, fmt.Sprintf("executed %d scheduled %d max queue %d end %x", st.Executed, st.Scheduled, st.MaxQueue, bits(e.Now())),
		fmt.Sprintf("cpus %d %d %x %x", farm.Completed(), pc.Completed(), bits(farm.Utilization()), bits(pc.Utilization())),
		fmt.Sprintf("disk %d %d %x %x %x", disk.Reads(), disk.Writes(), bits(disk.BytesRead()), bits(disk.BytesWritten()), bits(disk.Utilization())),
		fmt.Sprintf("tape %d %d %x", tape.Reads(), tape.Writes(), bits(tape.Utilization())),
		fmt.Sprintf("db %d %x %d", db.Queries(), bits(db.Utilization()), db.Disk().Reads()))
}

// TestFormsPinned runs one contended job mix over every primitive as
// blocking processes and as event chains: the two logs agree line by
// line (each step of each job ends at the same instant in the same
// order, every counter agrees bit for bit, and the engine executes and
// schedules the same events), and each hashes to what the process
// bodies the primitives had before their op forms logged. It replaces
// TestFormsMatchProcessReference, which ran those bodies beside both
// forms; the hashes were recorded at commit 74e1d7d, where all three
// forms produced them.
func TestFormsPinned(t *testing.T) {
	want := map[uint64]string{
		1: "164 lines 992e4f921e5caa9f",
		2: "153 lines 28a268145e5c81c8",
		3: "155 lines 5e41a10b053a0762",
	}
	for seed := uint64(1); seed <= 3; seed++ {
		blocking, chain := rigLog(seed, false), rigLog(seed, true)
		if len(blocking) != len(chain) {
			t.Fatalf("seed %d: %d log lines blocking, %d chained", seed, len(blocking), len(chain))
		}
		for i := range chain {
			if blocking[i] != chain[i] {
				t.Fatalf("seed %d line %d: blocking %q, chain %q", seed, i, blocking[i], chain[i])
			}
		}
		if got := logHash(chain); got != want[seed] {
			t.Errorf("seed %d: log %s, want %s", seed, got, want[seed])
		}
	}
}

// logHash is a log's line count and an FNV-64 of its lines, each ended
// by a newline.
func logHash(log []string) string {
	h := fnv.New64a()
	for _, l := range log {
		io.WriteString(h, l+"\n")
	}
	return fmt.Sprintf("%d lines %016x", len(log), h.Sum64())
}
