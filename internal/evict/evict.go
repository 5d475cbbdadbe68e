// Package evict implements VABlock eviction policies. The production UVM
// driver uses least-recently-used eviction where the LRU list is updated
// only when a *fault* is serviced on a block (paper §V-A). That
// restriction creates the pathology the paper highlights: fully-resident
// hot blocks are never touched again and drift to the LRU tail, so the
// hottest data can be the first evicted. Alternative policies (FIFO,
// random, and an access-counter-aware variant of LRU per §VI-B) exist for
// the ablation experiments.
package evict

import (
	"fmt"

	"uvmsim/internal/mem"
	"uvmsim/internal/sim"
)

// Policy selects eviction victims among GPU-allocated VABlocks.
//
// Insert registers a newly allocated block; Touch records a fault-service
// event on a registered block; Remove deregisters a block (after eviction
// or teardown); Victim returns the block to evict next without removing
// it, or nil when none is registered.
type Policy interface {
	Name() string
	Insert(b *mem.VABlock)
	Touch(b *mem.VABlock)
	Remove(b *mem.VABlock)
	Victim() *mem.VABlock
	Len() int
}

// New returns the named policy: "lru", "fifo", "random", or
// "access-aware". rng is required by "random" only.
func New(name string, rng *sim.RNG) (Policy, error) {
	switch name {
	case "lru", "":
		return NewLRU(), nil
	case "fifo":
		return NewFIFO(), nil
	case "random":
		if rng == nil {
			return nil, fmt.Errorf("evict: random policy requires an RNG")
		}
		return NewRandom(rng), nil
	case "access-aware":
		return NewAccessAware(), nil
	default:
		return nil, fmt.Errorf("evict: unknown policy %q", name)
	}
}

// lruNode links one registered block into the LRU list by block
// pointer; the zero value (block == nil) means "not registered".
type lruNode struct {
	block      *mem.VABlock
	prev, next *mem.VABlock // toward the head / tail; nil at the ends
}

// LRU is the driver's default policy: victims come from the tail; Touch
// moves a block to the head. Only fault servicing calls Touch.
//
// The list nodes live in a table indexed by block ID, so the
// steady-state Insert/Remove churn of oversubscription reuses the same
// entries and allocates nothing.
type LRU struct {
	head, tail *mem.VABlock // head = most recently touched
	nodes      mem.BlockTable[lruNode]
	n          int
}

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements Policy.
func (l *LRU) Name() string { return "lru" }

// Len implements Policy.
func (l *LRU) Len() int { return l.n }

// has reports whether b is registered.
func (l *LRU) has(b *mem.VABlock) bool { return l.nodes.Get(b.ID).block != nil }

// pushFront links the unlinked, registered block b in as the head.
func (l *LRU) pushFront(b *mem.VABlock) {
	*l.nodes.At(b.ID) = lruNode{block: b, next: l.head}
	if l.head != nil {
		l.nodes.At(l.head.ID).prev = b
	}
	l.head = b
	if l.tail == nil {
		l.tail = b
	}
}

// unlink takes b out of the list, leaving its entry registered.
func (l *LRU) unlink(b *mem.VABlock) {
	n := l.nodes.At(b.ID)
	if n.prev != nil {
		l.nodes.At(n.prev.ID).next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		l.nodes.At(n.next.ID).prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// Insert implements Policy. Inserting an already-present block panics:
// the driver allocates a block exactly once per residency period.
func (l *LRU) Insert(b *mem.VABlock) {
	if l.has(b) {
		panic(fmt.Sprintf("evict: duplicate insert of block %d", b.ID))
	}
	l.n++
	l.pushFront(b)
}

// Touch implements Policy.
func (l *LRU) Touch(b *mem.VABlock) {
	if !l.has(b) {
		panic(fmt.Sprintf("evict: touch of unregistered block %d", b.ID))
	}
	if l.head == b {
		return
	}
	l.unlink(b)
	l.pushFront(b)
}

// Remove implements Policy.
func (l *LRU) Remove(b *mem.VABlock) {
	if !l.has(b) {
		panic(fmt.Sprintf("evict: remove of unregistered block %d", b.ID))
	}
	l.unlink(b)
	*l.nodes.At(b.ID) = lruNode{}
	l.n--
}

// Victim implements Policy: the least recently touched block.
func (l *LRU) Victim() *mem.VABlock { return l.tail }

// FIFO evicts in allocation order; Touch is a no-op.
type FIFO struct {
	lru LRU
}

// NewFIFO returns an empty FIFO policy.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements Policy.
func (f *FIFO) Name() string { return "fifo" }

// Len implements Policy.
func (f *FIFO) Len() int { return f.lru.Len() }

// Insert implements Policy.
func (f *FIFO) Insert(b *mem.VABlock) { f.lru.Insert(b) }

// Touch implements Policy (no reordering).
func (f *FIFO) Touch(b *mem.VABlock) {
	if !f.lru.has(b) {
		panic(fmt.Sprintf("evict: touch of unregistered block %d", b.ID))
	}
}

// Remove implements Policy.
func (f *FIFO) Remove(b *mem.VABlock) { f.lru.Remove(b) }

// Victim implements Policy: the oldest allocation.
func (f *FIFO) Victim() *mem.VABlock { return f.lru.Victim() }

// Random evicts a uniformly random registered block.
type Random struct {
	rng   *sim.RNG
	order []*mem.VABlock
	index mem.BlockTable[int] // position in order + 1; 0 = absent
}

// NewRandom returns an empty random policy using rng.
func NewRandom(rng *sim.RNG) *Random {
	return &Random{rng: rng}
}

// Name implements Policy.
func (r *Random) Name() string { return "random" }

// Len implements Policy.
func (r *Random) Len() int { return len(r.order) }

// Insert implements Policy.
func (r *Random) Insert(b *mem.VABlock) {
	if r.index.Get(b.ID) != 0 {
		panic(fmt.Sprintf("evict: duplicate insert of block %d", b.ID))
	}
	r.order = append(r.order, b)
	*r.index.At(b.ID) = len(r.order)
}

// Touch implements Policy (no-op).
func (r *Random) Touch(b *mem.VABlock) {
	if r.index.Get(b.ID) == 0 {
		panic(fmt.Sprintf("evict: touch of unregistered block %d", b.ID))
	}
}

// Remove implements Policy (swap-delete).
func (r *Random) Remove(b *mem.VABlock) {
	i := r.index.Get(b.ID) - 1
	if i < 0 {
		panic(fmt.Sprintf("evict: remove of unregistered block %d", b.ID))
	}
	last := len(r.order) - 1
	r.order[i] = r.order[last]
	*r.index.At(r.order[i].ID) = i + 1
	r.order = r.order[:last]
	*r.index.At(b.ID) = 0
}

// Victim implements Policy.
func (r *Random) Victim() *mem.VABlock {
	if len(r.order) == 0 {
		return nil
	}
	return r.order[r.rng.Intn(len(r.order))]
}

// AccessAware is the §VI-B extension: LRU augmented with Volta-style
// access counters. A tail block whose GPU access counter advanced since
// the policy last examined it gets a second chance (moved to the head),
// fixing the hot-data starvation of fault-only LRU. The scan is bounded
// to one full cycle so Victim always terminates.
type AccessAware struct {
	lru      LRU
	lastSeen mem.BlockTable[uint64]
}

// NewAccessAware returns an empty access-aware policy.
func NewAccessAware() *AccessAware { return &AccessAware{} }

// Name implements Policy.
func (a *AccessAware) Name() string { return "access-aware" }

// Len implements Policy.
func (a *AccessAware) Len() int { return a.lru.Len() }

// Insert implements Policy.
func (a *AccessAware) Insert(b *mem.VABlock) {
	a.lru.Insert(b)
	*a.lastSeen.At(b.ID) = b.GPUAccesses
}

// Touch implements Policy.
func (a *AccessAware) Touch(b *mem.VABlock) { a.lru.Touch(b) }

// Remove implements Policy. The block's lastSeen entry goes stale; the
// next Insert overwrites it.
func (a *AccessAware) Remove(b *mem.VABlock) { a.lru.Remove(b) }

// Victim implements Policy.
func (a *AccessAware) Victim() *mem.VABlock {
	n := a.lru.Len()
	for i := 0; i < n; i++ {
		v := a.lru.Victim()
		if v == nil {
			return nil
		}
		if seen := a.lastSeen.At(v.ID); v.GPUAccesses > *seen {
			// Accessed since last inspection: second chance.
			*seen = v.GPUAccesses
			a.lru.Touch(v)
			continue
		}
		return v
	}
	// Every block was recently accessed; fall back to plain LRU order.
	return a.lru.Victim()
}
