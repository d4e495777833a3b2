package eventq

import "math"

// Ladder is a ladder queue (Tang, Goh & Thng, TOMACS 2005): a
// three-tier structure with an unsorted Top list for far-future
// events, a ladder of progressively finer bucket "rungs" in the
// middle, and a small sorted Bottom list that serves dequeues. Events
// are only sorted when they reach Bottom, and each bucket that
// overflows the threshold is spread across a new, finer rung, so the
// amortized cost per event is O(1) regardless of the timestamp
// distribution — the property that made it a successor to the
// calendar queue in the DES literature.
//
// All transient storage is recycled: Bottom nodes go through a free
// list, exhausted rungs (and their bucket arrays) are reused by the
// next spawn, and bucket backing arrays consumed by materialize are
// handed back to a spare pool. In steady state the hold pattern
// pop→push therefore allocates nothing.
type Ladder struct {
	top      []Item
	topMin   float64
	topMax   float64
	topStart float64 // events after this go to Top

	rungs []*ladderRung

	bottom     *listNode
	bottomLen  int
	bottomHigh float64 // max time currently in bottom (valid when bottomLen > 0)

	n int

	free      *listNode     // recycled bottom nodes
	freeRungs []*ladderRung // recycled rungs with their bucket arrays
	spare     [][]Item      // recycled bucket backing arrays
}

type ladderRung struct {
	start   float64
	width   float64
	buckets [][]Item
	cur     int // index of the next bucket to materialize
}

const (
	ladderThreshold = 50
	ladderMaxRungs  = 10
	ladderMaxSpare  = 64 // cap on pooled bucket arrays
)

// NewLadder returns an empty ladder queue.
func NewLadder() *Ladder {
	return &Ladder{topStart: math.Inf(-1), topMin: math.Inf(1), topMax: math.Inf(-1)}
}

// Len implements Queue.
func (l *Ladder) Len() int { return l.n }

// Push implements Queue.
func (l *Ladder) Push(it Item) {
	l.n++
	// Every boundary below sends all events of one time to one place,
	// so an event's seq orders it among its equal-time peers wherever
	// they are, even when it arrives after them with a lower one.
	if it.Time > l.topStart {
		l.top = append(l.top, it)
		if it.Time < l.topMin {
			l.topMin = it.Time
		}
		if it.Time > l.topMax {
			l.topMax = it.Time
		}
		return
	}
	// Events at or before Bottom's maximum must merge into Bottom, or
	// they would be served after later Bottom events.
	if l.bottomLen > 0 && it.Time <= l.bottomHigh {
		l.pushBottom(it)
		return
	}
	// Try rungs from coarsest to finest; an event can enter a rung only
	// at or after the rung's current (unmaterialized) bucket.
	for _, r := range l.rungs {
		if r.bucket(it.Time) >= r.cur {
			l.rungPut(r, it)
			return
		}
	}
	l.pushBottom(it)
}

// Peek implements Queue.
func (l *Ladder) Peek() (Item, bool) {
	if l.n == 0 {
		return Item{}, false
	}
	l.ensureBottom()
	return l.bottom.it, true
}

// Pop implements Queue.
func (l *Ladder) Pop() (Item, bool) {
	if l.n == 0 {
		return Item{}, false
	}
	l.ensureBottom()
	node := l.bottom
	l.bottom = node.next
	l.bottomLen--
	l.n--
	it := node.it
	*node = listNode{next: l.free} // release payload reference
	l.free = node
	return it, true
}

func (l *Ladder) pushBottom(it Item) {
	node := l.free
	if node != nil {
		l.free = node.next
		*node = listNode{it: it}
	} else {
		node = &listNode{it: it}
	}
	if l.bottom == nil || it.Before(l.bottom.it) {
		node.next = l.bottom
		l.bottom = node
	} else {
		at := l.bottom
		for at.next != nil && !it.Before(at.next.it) {
			at = at.next
		}
		node.next = at.next
		at.next = node
	}
	l.bottomLen++
	if it.Time > l.bottomHigh || l.bottomLen == 1 {
		l.bottomHigh = it.Time
	}
}

// ensureBottom refills Bottom from the ladder (and the ladder from
// Top) until Bottom holds the global minimum. Callers guarantee n > 0.
func (l *Ladder) ensureBottom() {
	for l.bottomLen == 0 {
		if len(l.rungs) == 0 {
			l.spawnFromTop()
			continue
		}
		r := l.rungs[len(l.rungs)-1]
		bucket := r.nextBucket()
		if bucket == nil { // rung exhausted: recycle it
			l.rungs = l.rungs[:len(l.rungs)-1]
			r.cur = 0
			l.freeRungs = append(l.freeRungs, r)
			continue
		}
		l.materialize(bucket)
	}
}

// materialize moves one bucket either into a new finer rung (when it
// is too big to sort cheaply) or into Bottom, then recycles the
// bucket's backing array.
func (l *Ladder) materialize(bucket []Item) {
	if len(bucket) > ladderThreshold && len(l.rungs) < ladderMaxRungs {
		lo, hi := bucket[0].Time, bucket[0].Time
		for _, it := range bucket[1:] {
			if it.Time < lo {
				lo = it.Time
			}
			if it.Time > hi {
				hi = it.Time
			}
		}
		// All-equal timestamps cannot be spread; sort them directly.
		if hi > lo {
			r := l.newRung(lo, hi, len(bucket))
			for _, it := range bucket {
				l.rungPut(r, it)
			}
			l.rungs = append(l.rungs, r)
			l.recycleBucket(bucket)
			return
		}
	}
	sortItems(bucket)
	// Bucket items all precede the (empty) bottom; inserting back to
	// front keeps every pushBottom on the head fast path.
	for i := len(bucket) - 1; i >= 0; i-- {
		l.pushBottom(bucket[i])
	}
	l.recycleBucket(bucket)
}

// spawnFromTop converts the Top list into the first rung of a fresh
// ladder and advances the Top threshold.
func (l *Ladder) spawnFromTop() {
	if len(l.top) == 1 {
		l.pushBottom(l.top[0])
		l.resetTop()
		return
	}
	lo, hi := l.topMin, l.topMax
	if hi <= lo { // all events share one timestamp
		items := l.top
		sortItems(items)
		for i := len(items) - 1; i >= 0; i-- {
			l.pushBottom(items[i])
		}
		l.resetTop()
		return
	}
	r := l.newRung(lo, hi, len(l.top))
	for _, it := range l.top {
		l.rungPut(r, it)
	}
	l.rungs = append(l.rungs[:0], r)
	l.topStart = hi
	l.top = l.top[:0]
	l.topMin = math.Inf(1)
	l.topMax = math.Inf(-1)
}

func (l *Ladder) resetTop() {
	l.topStart = math.Inf(-1)
	if l.bottomLen > 0 {
		l.topStart = l.bottomHigh
	}
	l.top = l.top[:0]
	l.topMin = math.Inf(1)
	l.topMax = math.Inf(-1)
}

// newRung returns a rung spanning [lo, hi) with ~count buckets,
// reusing a recycled rung's bucket array when it is large enough.
func (l *Ladder) newRung(lo, hi float64, count int) *ladderRung {
	nbuckets := count
	if nbuckets < 2 {
		nbuckets = 2
	}
	width := (hi - lo) / float64(nbuckets)
	if width <= 0 {
		width = math.SmallestNonzeroFloat64
	}
	if n := len(l.freeRungs); n > 0 {
		r := l.freeRungs[n-1]
		l.freeRungs = l.freeRungs[:n-1]
		r.start, r.width, r.cur = lo, width, 0
		if cap(r.buckets) >= nbuckets {
			r.buckets = r.buckets[:nbuckets]
			// Entries were nil'd by nextBucket when the rung drained.
		} else {
			r.buckets = make([][]Item, nbuckets)
		}
		return r
	}
	return &ladderRung{start: lo, width: width, buckets: make([][]Item, nbuckets)}
}

// rungPut files an item into its rung bucket, drawing a recycled
// backing array for the bucket's first item when one is available.
// The bucket is never behind r.cur: Push checks it, and a new rung
// starts at its least item.
func (l *Ladder) rungPut(r *ladderRung, it Item) {
	idx := r.bucket(it.Time)
	b := r.buckets[idx]
	if b == nil {
		if n := len(l.spare); n > 0 {
			b = l.spare[n-1]
			l.spare = l.spare[:n-1]
		}
	}
	r.buckets[idx] = append(b, it)
}

// recycleBucket returns a consumed bucket's backing array to the spare
// pool.
func (l *Ladder) recycleBucket(bucket []Item) {
	if cap(bucket) == 0 || len(l.spare) >= ladderMaxSpare {
		return
	}
	bucket = bucket[:cap(bucket)]
	for i := range bucket {
		bucket[i] = Item{} // release payload references
	}
	l.spare = append(l.spare, bucket[:0])
}

// bucket is the index of the rung's bucket for time t: monotone in t,
// with times past the rung's end in its last bucket.
func (r *ladderRung) bucket(t float64) int {
	last := len(r.buckets) - 1
	if f := (t - r.start) / r.width; f < float64(last) {
		return int(f)
	}
	return last
}

// nextBucket returns the next non-empty bucket, or nil when the rung
// is exhausted.
func (r *ladderRung) nextBucket() []Item {
	for r.cur < len(r.buckets) {
		b := r.buckets[r.cur]
		r.buckets[r.cur] = nil
		r.cur++
		if len(b) > 0 {
			return b
		}
	}
	return nil
}

// sortItems sorts in place on (Time, Seq) without allocating — the
// reflection-based sort.Slice allocates its closure and header on
// every call, which would break the allocation-free steady state.
// Buckets that reach a sort are normally at most ladderThreshold
// items, where insertion sort wins; oversized runs (rung limit hit, or
// a Top spill of equal timestamps) fall back to heapsort.
func sortItems(items []Item) {
	if len(items) <= 2*ladderThreshold {
		for i := 1; i < len(items); i++ {
			it := items[i]
			j := i - 1
			for j >= 0 && it.Before(items[j]) {
				items[j+1] = items[j]
				j--
			}
			items[j+1] = it
		}
		return
	}
	for i := len(items)/2 - 1; i >= 0; i-- {
		siftDown(items, i, len(items))
	}
	for end := len(items) - 1; end > 0; end-- {
		items[0], items[end] = items[end], items[0]
		siftDown(items, 0, end)
	}
}

// siftDown restores the max-heap property for items[i:end).
func siftDown(items []Item, i, end int) {
	for {
		child := 2*i + 1
		if child >= end {
			return
		}
		if r := child + 1; r < end && items[child].Before(items[r]) {
			child = r
		}
		if !items[i].Before(items[child]) {
			return
		}
		items[i], items[child] = items[child], items[i]
		i = child
	}
}
