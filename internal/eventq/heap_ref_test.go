package eventq

// refHeap is the binary heap that was Heap until PR 20, kept verbatim
// as the reference the branch-free heap is differentially tested
// against: swaps of whole Items, float compares through Item.Before.
type refHeap struct {
	items []Item
}

func (h *refHeap) Len() int { return len(h.items) }

func (h *refHeap) Push(it Item) {
	h.items = append(h.items, it)
	h.up(len(h.items) - 1)
}

func (h *refHeap) Peek() (Item, bool) {
	if len(h.items) == 0 {
		return Item{}, false
	}
	return h.items[0], true
}

func (h *refHeap) Pop() (Item, bool) {
	n := len(h.items)
	if n == 0 {
		return Item{}, false
	}
	min := h.items[0]
	h.items[0] = h.items[n-1]
	h.items[n-1] = Item{} // release payload reference
	h.items = h.items[:n-1]
	if len(h.items) > 0 {
		h.down(0)
	}
	return min, true
}

func (h *refHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.items[i].Before(h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *refHeap) down(i int) {
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && h.items[right].Before(h.items[left]) {
			least = right
		}
		if !h.items[least].Before(h.items[i]) {
			return
		}
		h.items[i], h.items[least] = h.items[least], h.items[i]
		i = least
	}
}
