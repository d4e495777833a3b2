package replication

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/topology"
)

// The process bodies of the access protocol, the push replicator and the
// agent as they were before each became an event chain over the
// primitives' op forms. They are the reference both the chains and the
// blocking Access adapter must reproduce event for event.

func (sys *System) refAccess(p *des.Process, site *topology.Site, name string) error {
	f := sys.catalog.File(name)
	if f == nil {
		return fmt.Errorf("%w: %q undefined", ErrNoReplica, name)
	}
	st := sys.bySite[site]
	now := sys.e.Now()
	if st != nil && st.Has(name) {
		st.touch(f, now)
		site.Disk.Read(p, f.Bytes)
		sys.LocalHits++
		sys.refRecordServed(site, f)
		return nil
	}
	holder := sys.nearestHolder(f, site)
	if holder == nil {
		return fmt.Errorf("%w: %q", ErrNoReplica, name)
	}
	// Read at the holder, ship over the WAN.
	holder.Disk.Read(p, f.Bytes)
	sys.fabric.Send(p, holder.Net, site.Net, f.Bytes)
	sys.WANBytes += f.Bytes
	sys.refRecordServed(holder, f)
	mode := sys.mode[site]
	if mode == ModePull && st != nil {
		newValue := 1.0
		if st.admit(f, sys.e.Now(), newValue, false) {
			site.Disk.Write(p, f.Bytes)
			sys.catalog.AddReplica(name, site)
			sys.Pulls++
		}
	}
	sys.RemoteReads++
	return nil
}

func (sys *System) refRecordServed(holder *topology.Site, f *File) {
	n := sys.countServed(holder, f)
	if sys.mode[holder] != ModePush {
		return
	}
	if n%sys.push.Threshold != 0 {
		return
	}
	sys.refPushReplicas(holder, f)
}

func (sys *System) refPushReplicas(holder *topology.Site, f *File) {
	type cand struct {
		st  *Store
		lat float64
	}
	var cands []cand
	for _, st := range sys.stores {
		if st.Site == holder || st.Has(f.Name) {
			continue
		}
		lat := sys.fabric.Topo().PathLatency(holder.Net, st.Site.Net)
		if lat < 0 {
			continue
		}
		cands = append(cands, cand{st, lat})
	}
	// Selection sort by latency (tiny lists; stable by store order).
	for i := 0; i < len(cands) && i < sys.push.Fanout; i++ {
		best := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].lat < cands[best].lat {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
		target := cands[i].st
		sys.e.Spawn(fmt.Sprintf("push:%s->%s", f.Name, target.Site.Name), func(p *des.Process) {
			holder.Disk.Read(p, f.Bytes)
			sys.fabric.Send(p, holder.Net, target.Site.Net, f.Bytes)
			sys.WANBytes += f.Bytes
			if target.Has(f.Name) {
				return
			}
			if target.admit(f, p.Now(), 1.0, false) {
				target.Site.Disk.Write(p, f.Bytes)
				sys.catalog.AddReplica(f.Name, target.Site)
				sys.Pushes++
			}
		})
	}
}

func (a *Agent) refProduce(f *File) {
	a.sys.Place(f, a.source)
	produced := a.sys.e.Now()
	for _, sub := range a.subscribers {
		sub := sub
		a.Backlog++
		a.sys.e.Spawn(fmt.Sprintf("agent:%s->%s", f.Name, sub.Name), func(p *des.Process) {
			a.sys.fabric.Send(p, a.source.Net, sub.Net, f.Bytes)
			a.sys.WANBytes += f.Bytes
			st := a.sys.bySite[sub]
			if st != nil && st.admit(f, p.Now(), 1.0, false) {
				sub.Disk.Write(p, f.Bytes)
				a.sys.catalog.AddReplica(f.Name, sub)
			}
			a.Backlog--
			a.Shipped++
			delay := p.Now() - produced
			if delay > a.MaxDelay {
				a.MaxDelay = delay
			}
			a.lastDone = p.Now()
		})
	}
}

const (
	formReference = iota
	formBlocking
	formChain
)

// replicaGrid runs one seeded data grid in one form and returns its
// log: six sites on a ring with chords and small disks, every mode and
// eviction policy, an agent shipping fresh files from site 0 while
// jobs access random files everywhere, including files nobody holds,
// and one store that refuses what it is sent.
func replicaGrid(seed uint64, form int) []string {
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
		e.Schedule(float64(i)*0.3, func() {
			if form == formReference {
				agent.refProduce(f)
			} else {
				agent.Produce(f)
			}
		})
	}
	names := []string{"ghost", "orphan", "run0", "run3"}
	for i := 0; i < 8; i++ {
		names = append(names, fmt.Sprintf("f%d", i))
	}
	jobDone := e.RegisterOp("job:done", func(arg []byte) { note("job %d done", int(arg[0])) })
	at := 0.0
	for j := 0; j < 80; j++ {
		j := j
		at += plan.Exp(20)
		site, name := g.Sites[plan.Intn(6)], names[plan.Intn(len(names))]
		if form == formChain {
			e.Schedule(at, func() {
				if err := sys.AccessOp(site, name, jobDone, []byte{byte(j)}); err != nil {
					note("job %d: %v", j, err)
				}
			})
			continue
		}
		e.SpawnAt("job", at, func(p *des.Process) {
			var err error
			if form == formReference {
				err = sys.refAccess(p, site, name)
			} else {
				err = sys.Access(p, site, name)
			}
			if err != nil {
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

// TestEventFormsMatchProcessReference pins the access protocol, push
// replication and the agent: as event chains and through the blocking
// adapter they complete every job at the same instant in the same
// order, leave the same replicas, counters and evictions, and cost the
// same events as the reference processes, on both fabrics.
func TestEventFormsMatchProcessReference(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		want := replicaGrid(seed, formReference)
		for _, form := range []int{formBlocking, formChain} {
			got := replicaGrid(seed, form)
			if len(got) != len(want) {
				t.Fatalf("seed %d form %d: %d log lines, reference %d", seed, form, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d form %d line %d:\n got  %s\n want %s", seed, form, i, got[i], want[i])
				}
			}
		}
	}
}
