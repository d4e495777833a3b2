// Package replication implements the Data Grid substrate: logical
// files, a replica catalog, per-site storage elements with eviction
// policies, and the replication strategies of the surveyed Data Grid
// simulators —
//
//   - OptorSim's "pull" model, where a site fetches (and usually
//     stores) a replica when a local job first accesses a file, with
//     LRU/LFU/economic eviction deciding what to drop;
//   - ChicagoSim's "push" model, where "when a site contains a popular
//     data file, it will replicate it to remote sites" proactively;
//   - MONARC's replication agent, which ships newly produced data from
//     a source centre to subscriber centres (see Agent).
package replication

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/topology"
)

// File is a logical Data Grid file.
type File struct {
	Name  string
	Bytes float64
	slot  int // index of the file's entries in its catalog's and stores' slices, set by Define
}

// Catalog is the replica catalog: it maps each logical file to the
// sites currently holding a physical replica. Holder lists preserve
// registration order, keeping lookups deterministic.
type Catalog struct {
	files   map[string]*File   // by name: the by-name calls' one lookup
	holders [][]*topology.Site // by file slot
	widest  int                // the longest holder list yet
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{files: make(map[string]*File)}
}

// Define registers a logical file (without placing any replica) and
// gives it the next slot; a redefinition takes the name's slot.
// Redefining a name with a different size panics.
func (c *Catalog) Define(f *File) {
	if !(f.Bytes >= 0) || math.IsInf(f.Bytes, 1) || f.Name == "" {
		panic(fmt.Sprintf("replication: bad file %+v", f))
	}
	if old, ok := c.files[f.Name]; ok {
		if old.Bytes != f.Bytes {
			panic(fmt.Sprintf("replication: file %q redefined with different size", f.Name))
		}
		f.slot = old.slot
	} else {
		f.slot = len(c.holders)
		c.holders = append(c.holders, make([]*topology.Site, 0, c.widest)) // one allocation, as long as the longest list yet
	}
	c.files[f.Name] = f
}

// File returns the logical file by name, or nil.
func (c *Catalog) File(name string) *File { return c.files[name] }

// Files returns the number of defined logical files.
func (c *Catalog) Files() int { return len(c.files) }

// AddReplica records that site holds a replica of the file.
func (c *Catalog) AddReplica(name string, site *topology.Site) {
	f := c.files[name]
	if f == nil {
		panic(fmt.Sprintf("replication: AddReplica of undefined file %q", name))
	}
	c.addReplica(f, site)
}

func (c *Catalog) addReplica(f *File, site *topology.Site) {
	hs := c.holders[f.slot]
	for _, s := range hs {
		if s == site {
			return
		}
	}
	c.holders[f.slot] = append(hs, site)
	c.widest = max(c.widest, len(hs)+1)
}

// RemoveReplica drops the site's replica record.
func (c *Catalog) RemoveReplica(name string, site *topology.Site) {
	if f := c.files[name]; f != nil {
		c.holders[f.slot] = slices.DeleteFunc(c.holders[f.slot], func(s *topology.Site) bool { return s == site })
	}
}

// Holders returns the sites holding the file, in registration order.
// The returned slice must not be mutated.
func (c *Catalog) Holders(name string) []*topology.Site {
	if f := c.files[name]; f != nil {
		return c.holders[f.slot]
	}
	return nil
}

// HasReplica reports whether site holds the file.
func (c *Catalog) HasReplica(name string, site *topology.Site) bool {
	for _, s := range c.Holders(name) {
		if s == site {
			return true
		}
	}
	return false
}

// ReplicaCount returns the number of replicas of the file.
func (c *Catalog) ReplicaCount(name string) int { return len(c.Holders(name)) }
