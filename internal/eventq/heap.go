package eventq

import (
	"math"
	"math/bits"
)

// Heap is an array-backed 4-ary min-heap whose sift-down has no
// data-dependent branch. Push, Pop and ReplaceMin are O(log n); Peek is
// O(1). It is the engines' default: allocation-free in steady state,
// and at or near the front of E3's table at every population
// (EXPERIMENTS.md).
//
// A hold-model Pop in the textbook heap pays one coin-flip branch per
// level ("is the left or the right child smaller?" on two random keys),
// and the misprediction costs more than the level's work (DESIGN.md
// §5.1). Here a node carries an order-preserving integer image of its
// Time, and "which child is smallest" is computed, not branched on:
// the smaller of each sibling pair is selected by value under a mask
// made from the borrow out of a two-word subtraction over (key, seq),
// the two winners are compared the same way, and the borrow picks the
// index. The hole walks the min-child path to a leaf before the node
// to place is sifted up from there: after Pop the displaced last
// element, after ReplaceMin the pushed one, which in a hold pattern
// both belong near the bottom anyway.
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

// before is 1 when (ak, as) orders strictly before (bk, bs) and 0
// otherwise: the borrow out of the 128-bit subtraction a − b.
func before(ak, as, bk, bs uint64) uint64 {
	_, borrow := bits.Sub64(as, bs, 0)
	_, borrow = bits.Sub64(ak, bk, borrow)
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
	min, last := h.nodes[0], h.nodes[n]
	h.nodes[n].ev = nil // release payload reference
	h.nodes = h.nodes[:n]
	if n > 0 {
		h.down(last)
	}
	return min.item(), true
}

// ReplaceMin removes the minimum and pushes it in one pass, as Pop then
// Push would, and leaves Len as it was; on an empty heap it is Push. A
// hold (pop the minimum, push its successor) costs one sift this way,
// not two. The old minimum is overwritten unread.
func (h *Heap) ReplaceMin(it Item) {
	if len(h.nodes) == 0 {
		h.Push(it)
		return
	}
	h.down(heapNode{key: timeKey(it.Time), seq: it.Seq, ev: it.Event})
}

// down moves the smallest child into the hole at the root, level by
// level, without asking where nd belongs, then places nd from the leaf
// it reached upward. A full sibling group is two selects by value and a
// third compare on the winners, each on the borrow of before: the
// winners are not reloaded through an index, and only the last pick's
// index addresses a load.
func (h *Heap) down(nd heapNode) {
	nodes := h.nodes
	n := len(nodes)
	i, c := 0, 1
	for ; c+heapArity <= n; c = heapArity*i + 1 {
		g := nodes[c : c+heapArity : c+heapArity]
		k0, s0, k1, s1 := g[0].key, g[0].seq, g[1].key, g[1].seq
		b01 := before(k1, s1, k0, s0)
		lk, ls := k0^(k0^k1)&-b01, s0^(s0^s1)&-b01
		k2, s2, k3, s3 := g[2].key, g[2].seq, g[3].key, g[3].seq
		b23 := before(k3, s3, k2, s2)
		hk, hs := k2^(k2^k3)&-b23, s2^(s2^s3)&-b23
		lo, hi := int(b01), 2+int(b23)
		m := lo + (hi-lo)&-int(before(hk, hs, lk, ls))
		nodes[i] = g[m&(heapArity-1)] // m < heapArity: the mask drops a bounds check
		i = c + m
	}
	if c < n { // the partial last sibling group
		m := c
		for j := c + 1; j < n; j++ {
			m += (j - m) * int(before(nodes[j].key, nodes[j].seq, nodes[m].key, nodes[m].seq))
		}
		nodes[i] = nodes[m]
		i = m
	}
	h.up(i, nd)
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
