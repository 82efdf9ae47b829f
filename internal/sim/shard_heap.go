package sim

// shardHeap is the per-shard 4-ary min-heap of events ordered by the
// width-independent (at, src, seq) key. A hand-rolled heap (rather than
// container/heap) avoids interface boxing on the hot path; the simulator
// delivers millions of events per benchmark run.
//
// The 4-ary layout halves the sift-down depth of a binary heap: events are
// 48 bytes, so the extra sibling comparisons stay inside one or two cache
// lines while every level saved is a (likely missed) random access. The key
// is a total order, so heap shape never affects pop order, which keeps the
// arity an implementation detail with no effect on simulation determinism.
type shardHeap struct {
	ev []shardEvent
}

// arity is the heap's branching factor. Children of node i are
// arity*i+1 .. arity*i+arity; the parent of node i is (i-1)/arity.
const arity = 4

func (h *shardHeap) Len() int { return len(h.ev) }

func (h *shardHeap) less(i, j int) bool {
	return h.ev[i].before(&h.ev[j])
}

func (h *shardHeap) push(e shardEvent) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / arity
		if !h.less(i, parent) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

// top returns the minimum event in place, or nil when the heap is empty. The
// pointer is valid until the next push or pop.
func (h *shardHeap) top() *shardEvent {
	if len(h.ev) == 0 {
		return nil
	}
	return &h.ev[0]
}

// pop removes the minimum event from a non-empty heap; read it with top
// first.
func (h *shardHeap) pop() {
	last := len(h.ev) - 1
	h.ev[0] = h.ev[last]
	// Zero the vacated tail slot: it holds a copy of the moved-from event,
	// whose Message (and everything it references) would otherwise be kept
	// alive by the backing array for as long as the heap lives.
	h.ev[last] = shardEvent{}
	h.ev = h.ev[:last]
	i := 0
	for {
		first := arity*i + 1
		if first >= len(h.ev) {
			break
		}
		end := first + arity
		if end > len(h.ev) {
			end = len(h.ev)
		}
		smallest := i
		for c := first; c < end; c++ {
			if h.less(c, smallest) {
				smallest = c
			}
		}
		if smallest == i {
			break
		}
		h.ev[i], h.ev[smallest] = h.ev[smallest], h.ev[i]
		i = smallest
	}
}
