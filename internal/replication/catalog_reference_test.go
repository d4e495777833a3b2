package replication

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/des"
	"repro/internal/topology"
)

// refCatalog and refStore are the catalog and the store as they were
// when both kept their files by name, in string-keyed maps. They are
// the reference FuzzCatalogAgainstReference holds the slot-indexed
// ones to.
type refCatalog struct {
	files   map[string]*File
	holders map[string][]*topology.Site
}

func newRefCatalog() *refCatalog {
	return &refCatalog{
		files:   make(map[string]*File),
		holders: make(map[string][]*topology.Site),
	}
}

func (c *refCatalog) Define(f *File) {
	if f.Bytes < 0 || f.Name == "" {
		panic(fmt.Sprintf("replication: bad file %+v", f))
	}
	if old, ok := c.files[f.Name]; ok && old.Bytes != f.Bytes {
		panic(fmt.Sprintf("replication: file %q redefined with different size", f.Name))
	}
	c.files[f.Name] = f
}

func (c *refCatalog) File(name string) *File { return c.files[name] }

func (c *refCatalog) AddReplica(name string, site *topology.Site) {
	if _, ok := c.files[name]; !ok {
		panic(fmt.Sprintf("replication: AddReplica of undefined file %q", name))
	}
	for _, s := range c.holders[name] {
		if s == site {
			return
		}
	}
	c.holders[name] = append(c.holders[name], site)
}

func (c *refCatalog) RemoveReplica(name string, site *topology.Site) {
	hs := c.holders[name]
	for i, s := range hs {
		if s == site {
			c.holders[name] = append(hs[:i], hs[i+1:]...)
			return
		}
	}
}

func (c *refCatalog) Holders(name string) []*topology.Site { return c.holders[name] }

func (c *refCatalog) HasReplica(name string, site *topology.Site) bool {
	for _, s := range c.holders[name] {
		if s == site {
			return true
		}
	}
	return false
}

type refStore struct {
	Site   *topology.Site
	policy EvictPolicy

	entries []*entry
	byName  map[string]*entry

	Evictions, Admitted, Refused uint64
}

func newRefStore(site *topology.Site, policy EvictPolicy) *refStore {
	return &refStore{Site: site, policy: policy, byName: make(map[string]*entry)}
}

func (s *refStore) Has(name string) bool { return s.byName[name] != nil }

func (s *refStore) touch(name string, now float64) {
	en := s.byName[name]
	if en == nil {
		return
	}
	en.lastAccess = now
	en.accesses++
	en.decayValue(now)
	en.value++
}

func (s *refStore) score(en *entry, now float64) float64 {
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

func (s *refStore) admit(f *File, now, newValue float64, pinned bool, evicted func(string)) bool {
	if s.byName[f.Name] != nil {
		return true
	}
	disk := s.Site.Disk
	if f.Bytes > disk.Capacity() {
		s.Refused++
		return false
	}
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
	en := &entry{file: f, pinned: pinned, lastAccess: now, valueTime: now, value: newValue}
	s.entries = append(s.entries, en)
	s.byName[f.Name] = en
	s.Admitted++
	return true
}

func (s *refStore) cheapestVictim(now float64) *entry {
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

func (s *refStore) drop(en *entry) {
	for i, e := range s.entries {
		if e == en {
			s.entries = append(s.entries[:i], s.entries[i+1:]...)
			break
		}
	}
	delete(s.byName, en.file.Name)
	s.Site.Disk.Release(en.file.Bytes)
}

func (s *refStore) Remove(name string) {
	if en := s.byName[name]; en != nil {
		s.drop(en)
	}
}

// panics runs fn and reports whether it panicked.
func panics(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}

// FuzzCatalogAgainstReference drives the slot-indexed catalog with an
// LRU, an LFU and an economic store, and the name-keyed reference
// catalog with the same three stores, through one sequence of defines
// and redefines (a redefinition with another size panics on both),
// admissions (evicting by policy, or refused; an admitted file is
// recorded at the store's site), touches, removals and replica records
// over six names. Each op is two bytes: the first picks the op and the
// name, the second the store or site, the size, the pin and the
// economic value, or how far the clock moves. After every op each
// file's holders, every store's contents, disk use and counters, and
// whether the op panicked, must agree.
func FuzzCatalogAgainstReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 8, 2, 16, 3, 1, 0, 9, 1, 17, 2, 6, 32, 2, 0, 25, 4})
	f.Add([]byte{0, 2, 8, 2, 16, 2, 24, 2, 1, 2, 9, 2, 17, 2, 25, 2, 6, 64, 10, 2, 1, 1})
	f.Add([]byte{0, 3, 8, 3, 1, 0x82, 9, 0x82, 0, 3, 16, 1, 17, 2, 17, 5, 17, 8, 11, 2, 13, 1, 12, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		names := []string{"a", "b", "c", "d", "e", "f"}
		sizes := []float64{0, 10, 30, 45, 120}
		policies := []EvictPolicy{EvictLRU, EvictLFU, EvictEconomic}
		spec := topology.SiteSpec{DiskBytes: 100, DiskBps: 1, DiskChans: 1}
		g, rg := topology.NewGrid(des.NewEngine()), topology.NewGrid(des.NewEngine())
		cat, ref := NewCatalog(), newRefCatalog()
		var stores []*Store
		var refs []*refStore
		for i, p := range policies {
			name := fmt.Sprintf("s%d", i)
			stores = append(stores, newStore(g.AddSite(name, spec), p, cat))
			refs = append(refs, newRefStore(rg.AddSite(name, spec), p))
		}
		now := 0.0
		for i := 0; i+1 < len(ops); i += 2 {
			op, name, arg := ops[i]%8, names[int(ops[i]/8)%len(names)], ops[i+1]
			k := int(arg) % len(stores)
			st, rs := stores[k], refs[k]
			var got, want bool // the op's answer, or whether it panicked
			switch op {
			case 0: // define or redefine
				bytes := sizes[int(arg)%len(sizes)]
				got = panics(func() { cat.Define(&File{Name: name, Bytes: bytes}) })
				want = panics(func() { ref.Define(&File{Name: name, Bytes: bytes}) })
			case 1: // admit, evicting by policy
				f, rf := cat.File(name), ref.File(name)
				if (f == nil) != (rf == nil) {
					t.Fatalf("op %d: File(%q) = %v, reference %v", i/2, name, f, rf)
				}
				if f == nil {
					continue
				}
				value, pinned := float64(arg/3%4), arg&0x80 != 0
				got = st.admit(f, now, value, pinned)
				want = rs.admit(rf, now, value, pinned, func(victim string) { ref.RemoveReplica(victim, rs.Site) })
				if got && want { // as Place records a master
					cat.AddReplica(name, st.Site)
					ref.AddReplica(name, rs.Site)
				}
			case 2:
				st.touch(cat.File(name), now)
				rs.touch(name, now)
			case 3:
				st.Remove(name)
				rs.Remove(name)
			case 4:
				got = panics(func() { cat.AddReplica(name, st.Site) })
				want = panics(func() { ref.AddReplica(name, rs.Site) })
			case 5:
				cat.RemoveReplica(name, st.Site)
				ref.RemoveReplica(name, rs.Site)
			default:
				now += float64(arg) / 16
			}
			if got != want {
				t.Fatalf("op %d (%d on %q, %#x) = %v, reference %v", i/2, op, name, arg, got, want)
			}
			if cat.Files() != len(ref.files) {
				t.Fatalf("op %d: %d files, reference %d", i/2, cat.Files(), len(ref.files))
			}
			for _, n := range names {
				siteIndex := func(hs []*topology.Site) (ids []int) {
					for _, h := range hs {
						ids = append(ids, int(h.Name[1]-'0'))
					}
					return ids
				}
				if h, rh := siteIndex(cat.Holders(n)), siteIndex(ref.Holders(n)); !slices.Equal(h, rh) || cat.ReplicaCount(n) != len(rh) {
					t.Fatalf("op %d: holders of %q %v (count %d), reference %v", i/2, n, h, cat.ReplicaCount(n), rh)
				}
				for j := range stores {
					if cat.HasReplica(n, stores[j].Site) != ref.HasReplica(n, refs[j].Site) || stores[j].Has(n) != refs[j].Has(n) {
						t.Fatalf("op %d: %q at store %d: replica %v, held %v; reference %v, %v", i/2, n, j,
							cat.HasReplica(n, stores[j].Site), stores[j].Has(n), ref.HasReplica(n, refs[j].Site), refs[j].Has(n))
					}
				}
			}
			for j, s := range stores {
				r := refs[j]
				if s.Len() != len(r.entries) || s.UsedBytes() != r.Site.Disk.Used() ||
					s.Evictions != r.Evictions || s.Admitted != r.Admitted || s.Refused != r.Refused {
					t.Fatalf("op %d: store %d len %d used %v evictions %d admitted %d refused %d; reference %d %v %d %d %d",
						i/2, j, s.Len(), s.UsedBytes(), s.Evictions, s.Admitted, s.Refused,
						len(r.entries), r.Site.Disk.Used(), r.Evictions, r.Admitted, r.Refused)
				}
			}
		}
	})
}
