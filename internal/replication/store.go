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

	entries []*entry // replica set in insertion order
	byName  map[string]*entry
	spare   []entry // entries not yet used, allocated a block at a time

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
func newStore(site *topology.Site, policy EvictPolicy) *Store {
	if site.Disk == nil {
		panic(fmt.Sprintf("replication: site %q has no disk", site.Name))
	}
	return &Store{Site: site, policy: policy, byName: make(map[string]*entry)}
}

// Policy returns the eviction policy.
func (s *Store) Policy() EvictPolicy { return s.policy }

// Has reports whether the store holds the file.
func (s *Store) Has(name string) bool { return s.byName[name] != nil }

// Len returns the number of replicas held.
func (s *Store) Len() int { return len(s.entries) }

// UsedBytes returns the bytes occupied by replicas.
func (s *Store) UsedBytes() float64 { return s.Site.Disk.Used() }

// touch records an access at simulation time now.
func (s *Store) touch(name string, now float64) {
	en := s.byName[name]
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
// on admission the disk space is allocated. evicted receives the name
// of every dropped replica so the caller can update the catalog.
func (s *Store) admit(f *File, now, newValue float64, pinned bool, evicted func(string)) bool {
	if s.byName[f.Name] != nil {
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
		if evicted != nil {
			evicted(victim.file.Name)
		}
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
	s.byName[f.Name] = en
	s.Admitted++
	return true
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
	delete(s.byName, en.file.Name)
	s.Site.Disk.Release(en.file.Bytes)
}

// Remove deletes a replica by name (no-op when absent), freeing space.
func (s *Store) Remove(name string) {
	if en := s.byName[name]; en != nil {
		s.drop(en)
	}
}
