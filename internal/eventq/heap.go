package eventq

import (
	"math"
	"math/bits"
)

// Heap is an array-backed 4-ary min-heap whose sift-down has no
// data-dependent branch. Push and Pop are O(log n); Peek is O(1). It is
// the engines' default: allocation-free in steady state, and at or
// near the front of E3's table at every population (EXPERIMENTS.md).
//
// A hold-model Pop in the textbook heap pays one coin-flip branch per
// level ("is the left or the right child smaller?" on two random keys),
// and the misprediction costs more than the level's work (DESIGN.md
// §5.1). Here a node carries an order-preserving integer image of its
// Time, "which child is smallest" is the borrow out of a two-word
// subtraction over (key, seq) added to the child index, and Pop walks
// the min-child path to a leaf before placing the displaced last
// element, which in a hold pattern belongs at the bottom anyway.
type Heap struct {
	nodes []heapNode
}

// heapNode is an Item with Time replaced by its integer image.
type heapNode struct {
	key uint64 // timeKey(Time): orders as Time does
	seq uint64
	ev  *Event
}

// heapArity children per node: under the same select a binary layout
// measures level at 100…10⁴ pending, 3 ns a hold faster at 8 and 30 %
// slower at 10⁵, where the halved height is fewer cache misses.
const heapArity = 4

// heapDoubleFrom is where a full heap starts doubling its array itself:
// append doubles only below 256 and then steps by ~1.25×, which fills a
// 10⁴-deep heap through arrays four times the last one in all, not two.
const heapDoubleFrom = 256

// timeKey maps a time to a uint64 that orders as the float does: sign
// bit flipped for t ≥ 0, every bit for t < 0. The +0 folds −0 onto +0,
// which IEEE orders as equal but whose bits differ.
func timeKey(t float64) uint64 {
	b := math.Float64bits(t + 0)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// keyTime inverts timeKey bit for bit.
func keyTime(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}

func (n heapNode) item() Item { return Item{Time: keyTime(n.key), Seq: n.seq, Event: n.ev} }

// before is 1 when a orders strictly before b by (key, seq) and 0
// otherwise: the borrow out of the 128-bit subtraction a − b.
func (a *heapNode) before(b *heapNode) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(a.key, b.key, borrow)
	return borrow
}

// NewHeap returns an empty heap.
func NewHeap() *Heap { return &Heap{} }

// Name implements Queue.
func (h *Heap) Name() string { return string(KindHeap) }

// Len implements Queue.
func (h *Heap) Len() int { return len(h.nodes) }

// Push implements Queue. A Time of −0 is stored as +0, the same
// instant. NaN has no place in the (Time, Seq) order, here as in every
// other kind: engines reject it before the queue sees it.
func (h *Heap) Push(it Item) {
	nd := heapNode{key: timeKey(it.Time), seq: it.Seq, ev: it.Event}
	i := len(h.nodes)
	if i == cap(h.nodes) && i >= heapDoubleFrom {
		h.nodes = append(make([]heapNode, 0, 2*i), h.nodes...)
	}
	h.nodes = append(h.nodes, nd)
	h.up(i, nd)
}

// Peek implements Queue.
func (h *Heap) Peek() (Item, bool) {
	if len(h.nodes) == 0 {
		return Item{}, false
	}
	return h.nodes[0].item(), true
}

// Pop implements Queue.
func (h *Heap) Pop() (Item, bool) {
	n := len(h.nodes) - 1
	if n < 0 {
		return Item{}, false
	}
	nodes := h.nodes
	min, last := nodes[0], nodes[n]
	nodes[n].ev = nil // release payload reference
	nodes = nodes[:n]
	h.nodes = nodes
	if n == 0 {
		return min.item(), true
	}
	// Move the smallest child into the hole, level by level, without
	// asking where last belongs: min of four as two parallel selects
	// and a third, each the borrow bit of before.
	i, c := 0, 1
	for ; c+heapArity <= n; c = heapArity*i + 1 {
		lo := c + int(nodes[c+1].before(&nodes[c]))
		hi := c + 2 + int(nodes[c+3].before(&nodes[c+2]))
		m := lo + (hi-lo)*int(nodes[hi].before(&nodes[lo]))
		nodes[i] = nodes[m]
		i = m
	}
	if c < n { // the partial last sibling group
		m := c
		for j := c + 1; j < n; j++ {
			m += (j - m) * int(nodes[j].before(&nodes[m]))
		}
		nodes[i] = nodes[m]
		i = m
	}
	h.up(i, last)
	return min.item(), true
}

// up places nd at or above the hole at i, moving parents down into it.
func (h *Heap) up(i int, nd heapNode) {
	nodes := h.nodes
	for i > 0 {
		p := (i - 1) / heapArity
		if nodes[p].key < nd.key || nodes[p].key == nd.key && nodes[p].seq < nd.seq {
			break
		}
		nodes[i] = nodes[p]
		i = p
	}
	nodes[i] = nd
}
