package eventq

import "math"

// Calendar is Brown's calendar queue (CACM 1988): an array of bucket
// "days", each holding a sorted list of events, with the whole array
// spanning one "year". Push hashes the timestamp to a bucket in O(1);
// Pop scans forward from the current day and only considers events
// falling inside the current year. When occupancy doubles or halves
// the calendar is rebuilt with a fresh bucket count and a bucket width
// estimated from a sample of inter-event gaps near the head, which is
// what makes the amortized cost O(1) and is exactly the mechanism the
// paper's taxonomy credits with beating O(log n) structures at scale.
// Popped nodes are recycled through a free list and resizes relink the
// existing nodes into a spare bucket array kept from the previous
// resize (ping-pong), so in steady state neither the hold pattern nor
// a rebuild allocates.
type Calendar struct {
	buckets   []calBucket
	spare     []calBucket // previous bucket array, reused on resize
	width     float64     // duration of one bucket (one "day")
	yearStart float64     // start time of the current year
	year      float64     // width * len(buckets)
	day       int         // bucket index the cursor is on
	n         int
	topThresh int // resize up when n exceeds this
	botThresh int // resize down when n falls below this
	resizable bool
	free      *listNode // recycled nodes
}

type calBucket struct {
	head *listNode
}

const (
	calMinBuckets = 2
	calSampleMax  = 25
)

// NewCalendar returns an empty calendar queue with automatic resizing.
func NewCalendar() *Calendar {
	c := &Calendar{resizable: true}
	c.init(calMinBuckets, 1.0, 0.0)
	return c
}

// Len implements Queue.
func (c *Calendar) Len() int { return c.n }

// SetResizable enables or disables automatic bucket-count adaptation.
// Disabling it is the E3a ablation: a calendar that cannot re-estimate
// its bucket width degenerates toward a sorted list when event
// spacings drift away from the configured width.
func (c *Calendar) SetResizable(v bool) { c.resizable = v }

func (c *Calendar) init(nbuckets int, width, start float64) {
	if cap(c.spare) >= nbuckets {
		next := c.spare[:nbuckets]
		for i := range next {
			next[i] = calBucket{}
		}
		c.spare = c.buckets
		c.buckets = next
	} else {
		c.spare = c.buckets
		c.buckets = make([]calBucket, nbuckets)
	}
	c.width = width
	c.year = width * float64(nbuckets)
	c.yearStart = math.Floor(start/c.year) * c.year
	c.day = int(math.Floor((start - c.yearStart) / width))
	if c.day >= nbuckets {
		c.day = nbuckets - 1
	}
	c.topThresh = 2 * nbuckets
	c.botThresh = nbuckets/2 - 2
}

func (c *Calendar) bucketFor(t float64) int {
	i := int(math.Floor(t/c.width)) % len(c.buckets)
	if i < 0 {
		i += len(c.buckets)
	}
	return i
}

// Push implements Queue.
func (c *Calendar) Push(it Item) {
	c.insert(it)
	if c.resizable && c.n > c.topThresh && len(c.buckets) < 1<<22 {
		c.resize(2 * len(c.buckets))
	}
}

func (c *Calendar) insert(it Item) {
	node := c.free
	if node != nil {
		c.free = node.next
		*node = listNode{it: it}
	} else {
		node = &listNode{it: it}
	}
	c.insertNode(node)
}

// insertNode links an engine- or resize-owned node into its bucket.
func (c *Calendar) insertNode(node *listNode) {
	it := node.it
	b := &c.buckets[c.bucketFor(it.Time)]
	// Buckets are kept sorted; scan from the head (buckets are short
	// by construction, ~1 item on average).
	if b.head == nil || it.Before(b.head.it) {
		node.next = b.head
		b.head = node
	} else {
		at := b.head
		for at.next != nil && !it.Before(at.next.it) {
			at = at.next
		}
		node.next = at.next
		at.next = node
	}
	c.n++
	// An event earlier than the cursor moves the cursor back so Pop
	// never skips it.
	if it.Time < c.yearStart+float64(c.day)*c.width {
		c.yearStart = math.Floor(it.Time/c.year) * c.year
		c.day = int(math.Floor((it.Time - c.yearStart) / c.width))
		if c.day >= len(c.buckets) {
			c.day = len(c.buckets) - 1
		}
	}
}

// Peek implements Queue.
func (c *Calendar) Peek() (Item, bool) {
	if c.n == 0 {
		return Item{}, false
	}
	it := c.findMin(false)
	return it, true
}

// Pop implements Queue.
func (c *Calendar) Pop() (Item, bool) {
	if c.n == 0 {
		return Item{}, false
	}
	it := c.findMin(true)
	if c.resizable && c.n < c.botThresh && len(c.buckets) > calMinBuckets {
		c.resize(len(c.buckets) / 2)
	}
	return it, true
}

// findMin locates (and when remove is set, unlinks) the earliest item.
// It scans days of the current year from the cursor; if a whole year
// passes without finding an event in-year, it falls back to a direct
// scan for the global minimum and jumps the calendar there — the
// standard guard against sparse far-future events.
func (c *Calendar) findMin(remove bool) Item {
	day := c.day
	yearStart := c.yearStart
	for scanned := 0; scanned < len(c.buckets); scanned++ {
		idx := day
		endOfDay := yearStart + float64(day+1)*c.width
		if head := c.buckets[idx].head; head != nil && head.it.Time < endOfDay {
			c.day = day
			c.yearStart = yearStart
			it := head.it
			if remove {
				c.buckets[idx].head = head.next
				c.n--
				c.release(head)
			}
			return it
		}
		day++
		if day == len(c.buckets) {
			day = 0
			yearStart += c.year
		}
	}
	// Sparse case: direct search over bucket heads.
	best := -1
	for i := range c.buckets {
		h := c.buckets[i].head
		if h == nil {
			continue
		}
		if best < 0 || h.it.Before(c.buckets[best].head.it) {
			best = i
		}
	}
	head := c.buckets[best].head
	c.yearStart = math.Floor(head.it.Time/c.year) * c.year
	c.day = int(math.Floor((head.it.Time - c.yearStart) / c.width))
	if c.day >= len(c.buckets) {
		c.day = len(c.buckets) - 1
	}
	it := head.it
	if remove {
		c.buckets[best].head = head.next
		c.n--
		c.release(head)
	}
	return it
}

// release returns a node to the free list, dropping its payload
// reference.
func (c *Calendar) release(node *listNode) {
	*node = listNode{next: c.free}
	c.free = node
}

// resize rebuilds the calendar with nbuckets buckets and a width
// estimated from the spacing of events near the head. The existing
// nodes are relinked into the new bucket array — no node is
// reallocated — and the displaced bucket array is kept as the spare
// for the next resize.
func (c *Calendar) resize(nbuckets int) {
	if nbuckets < calMinBuckets {
		nbuckets = calMinBuckets
	}
	width := c.estimateWidth()
	old := c.buckets
	start := math.Inf(1)
	for i := range old {
		if h := old[i].head; h != nil && h.it.Time < start {
			start = h.it.Time
		}
	}
	if math.IsInf(start, 1) {
		start = 0
	}
	c.init(nbuckets, width, start)
	c.n = 0
	for i := range old {
		node := old[i].head
		for node != nil {
			next := node.next
			c.insertNode(node)
			node = next
		}
	}
}

// estimateWidth samples up to calSampleMax events from the head of the
// queue and returns 3x their average separation (Brown's heuristic),
// clamped away from zero.
func (c *Calendar) estimateWidth() float64 {
	var sample [calSampleMax]float64
	ns := 0
	for i := range c.buckets {
		for node := c.buckets[i].head; node != nil && ns < calSampleMax; node = node.next {
			sample[ns] = node.it.Time
			ns++
		}
		if ns >= calSampleMax {
			break
		}
	}
	if ns < 2 {
		return c.width
	}
	// Insertion sort; the sample is tiny.
	for i := 1; i < ns; i++ {
		for j := i; j > 0 && sample[j] < sample[j-1]; j-- {
			sample[j], sample[j-1] = sample[j-1], sample[j]
		}
	}
	sum := 0.0
	for i := 1; i < ns; i++ {
		sum += sample[i] - sample[i-1]
	}
	avg := sum / float64(ns-1)
	width := 3 * avg
	if width <= 0 || math.IsNaN(width) || math.IsInf(width, 0) {
		return c.width
	}
	return width
}
