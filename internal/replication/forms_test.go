package replication

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/topology"
)

// replicaGrid runs one seeded data grid, its jobs as event chains or
// as processes blocked in Access, and returns its log. Six sites on a
// ring with chords and small disks cover every mode and eviction
// policy; an agent ships fresh files from site 0 while jobs access
// random files everywhere, including files nobody holds, and one store
// refuses what it is sent.
func replicaGrid(seed uint64, chain bool) []string {
	e := des.NewEngine(des.WithSeed(seed))
	spec := topology.SiteSpec{DiskBytes: 8e5, DiskBps: 1e6, DiskChans: 2}
	g := topology.SiteGrid(e, 6, spec, 2e5, 0.01, 2)
	var fabric netsim.Fabric = netsim.NewNetwork(e, g.Topo)
	if seed == 3 {
		fabric = netsim.NewPacketNet(e, g.Topo, 5e4)
	}
	sys := NewSystem(e, fabric)
	sys.SetPushConfig(PushConfig{Threshold: 2, Fanout: 2})
	modes := []Mode{ModePull, ModePush, ModeNone}
	for i, s := range g.Sites {
		sys.AddStore(s, EvictPolicy(i%3), modes[i%3])
	}
	var log []string
	note := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%x ", math.Float64bits(e.Now()))+fmt.Sprintf(format, args...))
	}
	plan := rng.New(seed).Derive("plan")
	for i := 0; i < 8; i++ {
		sys.Place(&File{Name: fmt.Sprintf("f%d", i), Bytes: float64(5e4 + plan.Intn(1e5))}, g.Sites[plan.Intn(6)])
	}
	sys.Catalog().Define(&File{Name: "orphan", Bytes: 10})
	// Fill site02 (economic, a subscriber) so that what it is sent is
	// refused: a store can drop a replica but never space it does not
	// own.
	if d := g.Sites[2].Disk; d.Free() > 5e4 {
		d.Allocate(d.Free() - 5e4)
	}
	agent := sys.NewAgent(g.Sites[0], g.Sites[1:4])
	for i := 0; i < 5; i++ {
		f := &File{Name: fmt.Sprintf("run%d", i), Bytes: 1e5}
		e.Schedule(float64(i)*0.3, func() { agent.Produce(f) })
	}
	names := []string{"ghost", "orphan", "run0", "run3"}
	for i := 0; i < 8; i++ {
		names = append(names, fmt.Sprintf("f%d", i))
	}
	jobDone := e.RegisterOp("job:done", func(arg []byte) { note("job %d done", int(arg[0])) })
	at := 0.0
	for j := 0; j < 80; j++ {
		at += plan.Exp(20)
		site, name := g.Sites[plan.Intn(6)], names[plan.Intn(len(names))]
		if chain {
			e.Schedule(at, func() {
				if err := sys.AccessOp(site, name, jobDone, []byte{byte(j)}); err != nil {
					note("job %d: %v", j, err)
				}
			})
			continue
		}
		e.SpawnAt("job", at, func(p *des.Process) {
			if err := sys.Access(p, site, name); err != nil {
				note("job %d: %v", j, err)
				return
			}
			note("job %d done", j)
		})
	}
	e.Run()
	s := e.Stats()
	note("executed %d scheduled %d max queue %d", s.Executed, s.Scheduled, s.MaxQueue)
	note("hits %d remote %d pulls %d pushes %d wan %x", sys.LocalHits, sys.RemoteReads, sys.Pulls, sys.Pushes, math.Float64bits(sys.WANBytes))
	note("agent shipped %d backlog %d max delay %x last %x", agent.Shipped, agent.Backlog, math.Float64bits(agent.MaxDelay), math.Float64bits(agent.LastDelivery()))
	for _, st := range sys.stores {
		note("%s len %d used %x evicted %d admitted %d refused %d reads %d writes %d", st.Site.Name, st.Len(),
			math.Float64bits(st.UsedBytes()), st.Evictions, st.Admitted, st.Refused, st.Site.Disk.Reads(), st.Site.Disk.Writes())
	}
	for _, name := range names[1:] {
		var holders []string
		for _, h := range sys.Catalog().Holders(name) {
			holders = append(holders, h.Name)
		}
		note("%s holders %v", name, holders)
	}
	return log
}

// TestEventFormsPinned runs the access protocol, push replication and
// the agent on both fabrics as event chains and through the blocking
// Access adapter: the two logs agree line by line (every job completes
// at the same instant in the same order, with the same replicas,
// counters, evictions and event counts), and each hashes to what the
// process bodies they replaced logged. It replaces
// TestEventFormsMatchProcessReference, which ran those bodies beside
// both forms; the hashes were recorded at commit 74e1d7d, where all
// three forms produced them.
func TestEventFormsPinned(t *testing.T) {
	want := map[uint64]string{
		1: "100 lines 5aac9d12915b54da",
		2: "100 lines 95154ecba216cf91",
		3: "100 lines 0d23de3ed6a3b538",
	}
	for seed := uint64(1); seed <= 3; seed++ {
		blocking, chain := replicaGrid(seed, false), replicaGrid(seed, true)
		if len(blocking) != len(chain) {
			t.Fatalf("seed %d: %d log lines blocking, %d chained", seed, len(blocking), len(chain))
		}
		for i := range chain {
			if blocking[i] != chain[i] {
				t.Fatalf("seed %d line %d:\n blocking %s\n chain    %s", seed, i, blocking[i], chain[i])
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
