package resources

import (
	"fmt"
	"math"

	"repro/internal/des"
)

// Disk models a disk subsystem: finite capacity, a fixed number of
// concurrent I/O channels, per-operation seek latency, and a transfer
// bandwidth shared one channel per operation. It backs both plain
// storage elements and the database/mass-storage servers of the
// MONARC-style regional centre.
type Disk struct {
	e        *des.Engine
	k        *kind
	name     string
	capacity float64 // bytes
	used     float64
	bps      float64 // per-channel transfer rate, bytes/second
	seek     float64 // per-operation latency, seconds
	channels *des.Resource

	reads, writes uint64
	bytesRead     float64
	bytesWritten  float64
}

// NewDisk creates a disk with the given capacity (bytes), per-channel
// bandwidth (bytes/second), per-operation seek time (seconds) and
// number of concurrent channels.
func NewDisk(e *des.Engine, name string, capacity, bps, seek float64, channels int) *Disk {
	if capacity < 0 || bps <= 0 || seek < 0 || channels <= 0 {
		panic(fmt.Sprintf("resources: NewDisk(%q, cap=%v, bps=%v, seek=%v, ch=%d)",
			name, capacity, bps, seek, channels))
	}
	return &Disk{
		e: e, k: des.PerEngine(e, newKind), name: name, capacity: capacity, bps: bps, seek: seek,
		channels: e.NewResource(name+":chan", channels),
	}
}

// Name returns the disk name.
func (d *Disk) Name() string { return d.name }

// Capacity returns total capacity in bytes.
func (d *Disk) Capacity() float64 { return d.capacity }

// Used returns allocated bytes.
func (d *Disk) Used() float64 { return d.used }

// Free returns unallocated bytes.
func (d *Disk) Free() float64 { return d.capacity - d.used }

// Reads returns the completed read-operation count.
func (d *Disk) Reads() uint64 { return d.reads }

// Writes returns the completed write-operation count.
func (d *Disk) Writes() uint64 { return d.writes }

// BytesRead returns cumulative bytes read.
func (d *Disk) BytesRead() float64 { return d.bytesRead }

// BytesWritten returns cumulative bytes written.
func (d *Disk) BytesWritten() float64 { return d.bytesWritten }

// Utilization returns the time-averaged fraction of busy channels.
func (d *Disk) Utilization() float64 { return d.channels.Utilization() }

// Allocate reserves space without timing cost (bookkeeping for replica
// placement). It reports false when the disk is full, and panics on a
// negative or NaN size.
func (d *Disk) Allocate(bytes float64) bool {
	if !(bytes >= 0) {
		panic(fmt.Sprintf("resources: Allocate(%v)", bytes))
	}
	if d.used+bytes > d.capacity {
		return false
	}
	d.used += bytes
	return true
}

// Release frees previously allocated space. It panics on a negative or
// NaN size, or one above what is allocated.
func (d *Disk) Release(bytes float64) {
	if !(bytes >= 0) || bytes > d.used {
		panic(fmt.Sprintf("resources: Release(%v) with %v used", bytes, d.used))
	}
	d.used -= bytes
}

// ReadOp reads bytes, finite and non-negative: it takes a channel,
// holds it for seek + bytes/bps and Calls op(arg) in the event that
// ends the hold, after the channel is released and the read counted.
func (d *Disk) ReadOp(bytes float64, op des.Op, arg []byte) { d.io(bytes, false, op, arg) }

// WriteOp is ReadOp for a write. It does not allocate space; pair it
// with Allocate when modeling placement.
func (d *Disk) WriteOp(bytes float64, op des.Op, arg []byte) { d.io(bytes, true, op, arg) }

// ioJob is one read or write in progress.
type ioJob struct {
	d     *Disk
	bytes float64
	write bool
	then  des.Op // the caller's continuation
	arg   []byte
}

func (d *Disk) io(bytes float64, write bool, then des.Op, arg []byte) {
	if !(bytes >= 0) || math.IsInf(bytes, 1) {
		panic(fmt.Sprintf("resources: I/O of %v bytes", bytes))
	}
	j, self := d.k.io.Get()
	*j = ioJob{d: d, bytes: bytes, write: write, then: then, arg: arg}
	d.channels.AcquireOp(1, d.k.ioGranted, self)
}

// grantIO holds the granted channel for the transfer.
func (k *kind) grantIO(self []byte) {
	j := k.io.At(self)
	k.e.ScheduleOp(j.d.seek+j.bytes/j.d.bps, k.ioEnded, self)
}

// endIO releases the channel, counts the I/O and continues the job.
func (k *kind) endIO(self []byte) {
	j := k.io.At(self)
	d, then, arg := j.d, j.then, j.arg
	d.channels.Release(1)
	if j.write {
		d.writes++
		d.bytesWritten += j.bytes
	} else {
		d.reads++
		d.bytesRead += j.bytes
	}
	k.io.Put(self)
	k.e.Call(then, arg)
}

// MassStorage models a tape archive: very large capacity, a small
// number of drives, a long mount latency and sequential bandwidth. It
// is the tertiary tier of a MONARC regional centre: a Disk whose drives
// are its channels and whose per-operation latency is the mount.
type MassStorage struct {
	*Disk
}

// NewMassStorage creates a tape store; mount is the per-operation
// mount+position latency (seconds). Reads and writes take
// mount + bytes/bps on one drive.
func NewMassStorage(e *des.Engine, name string, capacity, bps, mount float64, drives int) *MassStorage {
	return &MassStorage{Disk: NewDisk(e, name, capacity, bps, mount, drives)}
}

// Database models a database server in the MONARC sense: clients issue
// queries that are serviced by a pool of worker channels, each query
// costing a fixed overhead plus data-volume-proportional time.
type Database struct {
	e       *des.Engine
	k       *kind
	name    string
	disk    *Disk
	workers *des.Resource
	queryOH float64 // fixed per-query processing overhead, seconds

	queries uint64
}

// NewDatabase creates a database server backed by a private disk.
func NewDatabase(e *des.Engine, name string, capacity, bps, queryOverhead float64, workers int) *Database {
	if workers <= 0 || queryOverhead < 0 {
		panic(fmt.Sprintf("resources: NewDatabase(%q, workers=%d, oh=%v)", name, workers, queryOverhead))
	}
	return &Database{
		e: e, k: des.PerEngine(e, newKind), name: name,
		disk:    NewDisk(e, name+":disk", capacity, bps, 0, workers),
		workers: e.NewResource(name+":worker", workers),
		queryOH: queryOverhead,
	}
}

// Name returns the database name.
func (db *Database) Name() string { return db.name }

// Disk exposes the backing store (for capacity bookkeeping).
func (db *Database) Disk() *Disk { return db.disk }

// Queries returns the number of completed queries.
func (db *Database) Queries() uint64 { return db.queries }

// Utilization returns the time-averaged busy fraction of the workers.
func (db *Database) Utilization() float64 { return db.workers.Utilization() }

// QueryOp serves a request that touches bytes, finite and non-negative:
// a worker for the fixed overhead, then a read of bytes from the
// backing disk; op(arg) is Called in the event that ends the read.
func (db *Database) QueryOp(bytes float64, op des.Op, arg []byte) {
	if !(bytes >= 0) || math.IsInf(bytes, 1) {
		panic(fmt.Sprintf("resources: query of %v bytes", bytes))
	}
	j, self := db.k.query.Get()
	*j = queryJob{db: db, bytes: bytes, then: op, arg: arg}
	db.workers.AcquireOp(1, db.k.queryGranted, self)
}

// queryJob is one query in progress.
type queryJob struct {
	db    *Database
	bytes float64
	then  des.Op // the caller's continuation
	arg   []byte
}

// grantQuery holds the granted worker for the fixed overhead.
func (k *kind) grantQuery(self []byte) {
	k.e.ScheduleOp(k.query.At(self).db.queryOH, k.queryServed, self)
}

// serveQuery releases the worker and reads the data.
func (k *kind) serveQuery(self []byte) {
	j := k.query.At(self)
	j.db.workers.Release(1)
	j.db.disk.ReadOp(j.bytes, k.queryRead, self)
}

// endQuery counts the query and continues the job.
func (k *kind) endQuery(self []byte) {
	j := k.query.At(self)
	j.db.queries++
	then, arg := j.then, j.arg
	k.query.Put(self)
	k.e.Call(then, arg)
}
