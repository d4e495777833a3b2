package replication

import (
	"fmt"
	"math"

	"repro/internal/topology"
)

// EvictPolicy selects the replacement strategy of a storage element.
type EvictPolicy int

const (
	// EvictLRU drops the least-recently-accessed replica.
	EvictLRU EvictPolicy = iota
	// EvictLFU drops the least-frequently-accessed replica.
	EvictLFU
	// EvictEconomic drops the replica with the lowest economic value,
	// an OptorSim-style prediction of future worth computed from a
	// recency-decayed access count. A new file is only admitted when
	// its value exceeds the value of everything it would displace.
	EvictEconomic
)

// String returns the policy name.
func (p EvictPolicy) String() string {
	switch p {
	case EvictLRU:
		return "lru"
	case EvictLFU:
		return "lfu"
	case EvictEconomic:
		return "economic"
	default:
		return fmt.Sprintf("EvictPolicy(%d)", int(p))
	}
}

// economicHalfLife is the decay half-life (simulated seconds) of the
// economic value estimate.
const economicHalfLife = 1000.0

// Store is a site's storage element: the disk space dedicated to
// replicas plus the access metadata the eviction policies need.
type Store struct {
	Site   *topology.Site
	policy EvictPolicy
	cat    *Catalog // the catalog the store's files are defined in

	entries []*entry // replica set in insertion order
	bySlot  []*entry // by file slot; nil where the store holds no replica
	spare   []entry  // entries not yet used, allocated a block at a time

	// Stats.
	Evictions uint64
	Admitted  uint64
	Refused   uint64
}

type entry struct {
	file       *File
	pinned     bool // master copies are never evicted
	lastAccess float64
	accesses   uint64
	value      float64 // decayed access count (economic)
	valueTime  float64 // time of last value decay
}

// newStore wraps the site's disk. The site must have one.
func newStore(site *topology.Site, policy EvictPolicy, cat *Catalog) *Store {
	if site.Disk == nil {
		panic(fmt.Sprintf("replication: site %q has no disk", site.Name))
	}
	return &Store{Site: site, policy: policy, cat: cat}
}

// Policy returns the eviction policy.
func (s *Store) Policy() EvictPolicy { return s.policy }

// Has reports whether the store holds the file.
func (s *Store) Has(name string) bool { return s.entry(s.cat.File(name)) != nil }

// entry returns the store's entry for f, nil if none or f is nil.
func (s *Store) entry(f *File) *entry {
	if f != nil && f.slot < len(s.bySlot) {
		return s.bySlot[f.slot]
	}
	return nil
}

// Len returns the number of replicas held.
func (s *Store) Len() int { return len(s.entries) }

// UsedBytes returns the bytes occupied by replicas.
func (s *Store) UsedBytes() float64 { return s.Site.Disk.Used() }

// touch records an access to f at simulation time now.
func (s *Store) touch(f *File, now float64) {
	en := s.entry(f)
	if en == nil {
		return
	}
	en.lastAccess = now
	en.accesses++
	en.decayValue(now)
	en.value++
}

func (en *entry) decayValue(now float64) {
	dt := now - en.valueTime
	if dt > 0 {
		en.value *= math.Pow(0.5, dt/economicHalfLife)
		en.valueTime = now
	}
}

// score returns the eviction score under the policy; lower is evicted
// first.
func (s *Store) score(en *entry, now float64) float64 {
	switch s.policy {
	case EvictLRU:
		return en.lastAccess
	case EvictLFU:
		return float64(en.accesses)
	case EvictEconomic:
		en.decayValue(now)
		return en.value
	default:
		return en.lastAccess
	}
}

// admit tries to make room for and record a new replica at time now.
// newValue is the estimated worth of the incoming file (used only by
// the economic policy). It reports whether the replica was admitted;
// on admission the disk space is allocated. Every replica it drops
// leaves the catalog too.
func (s *Store) admit(f *File, now, newValue float64, pinned bool) bool {
	if s.entry(f) != nil {
		return true // already present
	}
	disk := s.Site.Disk
	if f.Bytes > disk.Capacity() {
		s.Refused++
		return false
	}
	// Evict until the file fits; abort (and refuse) if the victims
	// would be more valuable than the newcomer (economic) or pinned.
	for disk.Free() < f.Bytes {
		victim := s.cheapestVictim(now)
		if victim == nil {
			s.Refused++
			return false
		}
		if s.policy == EvictEconomic && !pinned && s.score(victim, now) >= newValue {
			s.Refused++
			return false
		}
		s.drop(victim)
		s.Evictions++
		s.cat.RemoveReplica(victim.file.Name, s.Site)
	}
	if !disk.Allocate(f.Bytes) {
		s.Refused++
		return false
	}
	if len(s.spare) == 0 {
		s.spare = make([]entry, 32)
	}
	en := &s.spare[0]
	s.spare = s.spare[1:]
	*en = entry{file: f, pinned: pinned, lastAccess: now, valueTime: now, value: newValue}
	s.entries = append(s.entries, en)
	s.bySlot = grown(s.bySlot, f.slot)
	s.bySlot[f.slot] = en
	s.Admitted++
	return true
}

// grown returns s, lengthened with zeros to hold index i, one append at
// a time: instrumented builds (-race) allocate append(s, make(...)...)'s make.
func grown[T any](s []T, i int) []T {
	var zero T
	for len(s) <= i {
		s = append(s, zero)
	}
	return s
}

// cheapestVictim returns the unpinned entry with the lowest score, or
// nil when none exists.
func (s *Store) cheapestVictim(now float64) *entry {
	var victim *entry
	best := math.Inf(1)
	for _, en := range s.entries {
		if en.pinned {
			continue
		}
		sc := s.score(en, now)
		if sc < best {
			best = sc
			victim = en
		}
	}
	return victim
}

// drop removes the entry and frees its disk space.
func (s *Store) drop(en *entry) {
	for i, e := range s.entries {
		if e == en {
			s.entries = append(s.entries[:i], s.entries[i+1:]...)
			break
		}
	}
	s.bySlot[en.file.slot] = nil
	s.Site.Disk.Release(en.file.Bytes)
}

// Remove deletes a replica by name (no-op when absent), freeing space.
func (s *Store) Remove(name string) {
	if en := s.entry(s.cat.File(name)); en != nil {
		s.drop(en)
	}
}
