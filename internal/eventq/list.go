package eventq

// List is a sorted doubly-linked list with a tail pointer. Pop and
// Peek are O(1); Push is O(n) in the worst case but O(1) when events
// are scheduled in near-FIFO time order, which is common for models
// with constant service times. It is the historical baseline the
// paper's taxonomy contrasts the O(1) structures against.
//
// Insertion scans backwards from the tail, because discrete-event
// workloads overwhelmingly insert at or near the maximum timestamp.
type List struct {
	head *listNode
	tail *listNode
	n    int
	pool *listNode // free list of recycled nodes
}

type listNode struct {
	it   Item
	prev *listNode
	next *listNode
}

// NewList returns an empty sorted linked list.
func NewList() *List { return &List{} }

// Len implements Queue.
func (l *List) Len() int { return l.n }

// Push implements Queue.
func (l *List) Push(it Item) {
	node := l.alloc(it)
	l.n++
	if l.tail == nil {
		l.head, l.tail = node, node
		return
	}
	// Scan backwards for the first node that orders before the new item.
	at := l.tail
	for at != nil && it.Before(at.it) {
		at = at.prev
	}
	if at == nil { // new minimum
		node.next = l.head
		l.head.prev = node
		l.head = node
		return
	}
	node.prev = at
	node.next = at.next
	if at.next != nil {
		at.next.prev = node
	} else {
		l.tail = node
	}
	at.next = node
}

// Peek implements Queue.
func (l *List) Peek() (Item, bool) {
	if l.head == nil {
		return Item{}, false
	}
	return l.head.it, true
}

// Pop implements Queue.
func (l *List) Pop() (Item, bool) {
	if l.head == nil {
		return Item{}, false
	}
	node := l.head
	l.head = node.next
	if l.head != nil {
		l.head.prev = nil
	} else {
		l.tail = nil
	}
	l.n--
	it := node.it
	l.free(node)
	return it, true
}

func (l *List) alloc(it Item) *listNode {
	if n := l.pool; n != nil {
		l.pool = n.next
		*n = listNode{it: it}
		return n
	}
	return &listNode{it: it}
}

func (l *List) free(n *listNode) {
	*n = listNode{next: l.pool}
	l.pool = n
}
