package eventq

// Splay is a splay-tree priority queue: a self-adjusting binary search
// tree with amortized O(log n) operations. Splay trees were long the
// recommendation of the discrete-event literature (e.g. Jones 1986)
// because event access patterns are highly skewed toward the minimum,
// which splaying exploits: the tree keeps a cached pointer to its
// minimum so Peek and the fast path of Pop are O(1).
// Popped nodes are recycled through a free list (linked via the right
// pointer), so the steady-state hold pattern pop→push allocates
// nothing.
type Splay struct {
	root *splayNode
	min  *splayNode
	n    int
	free *splayNode
}

type splayNode struct {
	it    Item
	left  *splayNode
	right *splayNode
}

// NewSplay returns an empty splay-tree queue.
func NewSplay() *Splay { return &Splay{} }

// Len implements Queue.
func (s *Splay) Len() int { return s.n }

// Push implements Queue.
func (s *Splay) Push(it Item) {
	s.n++
	fresh := s.free
	if fresh != nil {
		s.free = fresh.right
		*fresh = splayNode{it: it}
	} else {
		fresh = &splayNode{it: it}
	}
	if s.root == nil {
		s.root = fresh
		s.min = fresh
		return
	}
	s.root = splay(s.root, it)
	if it.Before(s.root.it) {
		fresh.right = s.root
		fresh.left = s.root.left
		s.root.left = nil
	} else {
		fresh.left = s.root
		fresh.right = s.root.right
		s.root.right = nil
	}
	s.root = fresh
	if it.Before(s.min.it) {
		s.min = fresh
	}
}

// Peek implements Queue.
func (s *Splay) Peek() (Item, bool) {
	if s.min == nil {
		return Item{}, false
	}
	return s.min.it, true
}

// Pop implements Queue.
func (s *Splay) Pop() (Item, bool) {
	if s.root == nil {
		return Item{}, false
	}
	// Splay the minimum to the root, detach it.
	s.root = splayMin(s.root)
	min := s.root
	s.root = min.right
	s.n--
	if s.root == nil {
		s.min = nil
	} else {
		s.min = leftmost(s.root)
	}
	it := min.it
	*min = splayNode{right: s.free} // release payload reference
	s.free = min
	return it, true
}

func leftmost(n *splayNode) *splayNode {
	for n.left != nil {
		n = n.left
	}
	return n
}

// splayMin rotates the minimum node of the subtree to its root using
// right zig-zig steps (the minimum has no left child after splaying).
func splayMin(t *splayNode) *splayNode {
	var dummy splayNode
	right := &dummy
	for t.left != nil {
		// zig-zig: rotate right.
		if t.left.left != nil {
			l := t.left
			t.left = l.right
			l.right = t
			t = l
			if t.left == nil {
				break
			}
		}
		right.left = t
		right = t
		t = t.left
	}
	right.left = t.right
	t.right = dummy.left
	return t
}

// splay performs a top-down splay of the node closest to it.
func splay(t *splayNode, it Item) *splayNode {
	if t == nil {
		return nil
	}
	var dummy splayNode
	left, right := &dummy, &dummy
	for {
		if it.Before(t.it) {
			if t.left == nil {
				break
			}
			if it.Before(t.left.it) { // zig-zig: rotate right
				l := t.left
				t.left = l.right
				l.right = t
				t = l
				if t.left == nil {
					break
				}
			}
			right.left = t // link right
			right = t
			t = t.left
		} else {
			if t.right == nil {
				break
			}
			if !it.Before(t.right.it) { // zag-zag: rotate left
				r := t.right
				t.right = r.left
				r.left = t
				t = r
				if t.right == nil {
					break
				}
			}
			left.right = t // link left
			left = t
			t = t.right
		}
	}
	left.right = t.left
	right.left = t.right
	t.left = dummy.right
	t.right = dummy.left
	return t
}
