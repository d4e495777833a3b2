package eventq

// SkipList is a probabilistic ordered list with expected O(log n)
// insertion and O(1) pop-min. Its tower heights are drawn from a
// deterministic internal xorshift generator with a fixed start, so a
// given insertion sequence always produces the same structure —
// simulation runs stay reproducible.
//
// Popped nodes are recycled through per-height free lists (a tower's
// next slice is only reusable by a tower of the same height), so the
// steady-state hold pattern pop→push allocates nothing.
type SkipList struct {
	head   *skipNode // sentinel, full height
	levels int       // current highest occupied level + 1
	n      int
	rng    uint64
	free   [skipMaxLevels]*skipNode // recycled towers, indexed by height-1
}

const skipMaxLevels = 28

type skipNode struct {
	it   Item
	next []*skipNode
}

// NewSkipList returns an empty skip list. Its tower-height stream
// starts from the same state in every list, so identical insert
// sequences give identical structures.
func NewSkipList() *SkipList {
	return &SkipList{
		head:   &skipNode{next: make([]*skipNode, skipMaxLevels)},
		levels: 1,
		rng:    1,
	}
}

// Len implements Queue.
func (s *SkipList) Len() int { return s.n }

// randLevel draws a tower height with P(level > k) = 2^-k.
func (s *SkipList) randLevel() int {
	// xorshift64*
	x := s.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.rng = x
	bits := x * 0x2545f4914f6cdd1d
	level := 1
	for bits&1 == 1 && level < skipMaxLevels {
		level++
		bits >>= 1
	}
	return level
}

// Push implements Queue.
func (s *SkipList) Push(it Item) {
	var update [skipMaxLevels]*skipNode
	node := s.head
	for lvl := s.levels - 1; lvl >= 0; lvl-- {
		for node.next[lvl] != nil && node.next[lvl].it.Before(it) {
			node = node.next[lvl]
		}
		update[lvl] = node
	}
	height := s.randLevel()
	if height > s.levels {
		for lvl := s.levels; lvl < height; lvl++ {
			update[lvl] = s.head
		}
		s.levels = height
	}
	fresh := s.alloc(it, height)
	for lvl := 0; lvl < height; lvl++ {
		fresh.next[lvl] = update[lvl].next[lvl]
		update[lvl].next[lvl] = fresh
	}
	s.n++
}

// alloc reuses a recycled tower of the requested height when one is
// available.
func (s *SkipList) alloc(it Item, height int) *skipNode {
	if node := s.free[height-1]; node != nil {
		s.free[height-1] = node.next[0]
		node.it = it
		for lvl := range node.next {
			node.next[lvl] = nil
		}
		return node
	}
	return &skipNode{it: it, next: make([]*skipNode, height)}
}

// Peek implements Queue.
func (s *SkipList) Peek() (Item, bool) {
	first := s.head.next[0]
	if first == nil {
		return Item{}, false
	}
	return first.it, true
}

// Pop implements Queue.
func (s *SkipList) Pop() (Item, bool) {
	first := s.head.next[0]
	if first == nil {
		return Item{}, false
	}
	for lvl := 0; lvl < len(first.next); lvl++ {
		s.head.next[lvl] = first.next[lvl]
	}
	for s.levels > 1 && s.head.next[s.levels-1] == nil {
		s.levels--
	}
	s.n--
	it := first.it
	first.it = Item{} // release payload reference
	first.next[0] = s.free[len(first.next)-1]
	s.free[len(first.next)-1] = first
	return it, true
}
