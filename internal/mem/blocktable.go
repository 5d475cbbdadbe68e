package mem

// BlockTable is per-VABlock state indexed directly by VABlockID.
// AddressSpace hands out block IDs densely from 0, so a slice replaces a
// map keyed by ID: no hashing, and iteration in ascending ID order.
//
// The zero value of T means "absent"; a table never shrinks, and a user
// forgets a block by storing the zero value back. Each table belongs to
// exactly one component (an eviction policy, a driver, the multi-GPU
// manager), which alone reads and writes it; tables are not shared and
// not safe for concurrent use, like the simulation they serve.
type BlockTable[T any] struct{ v []T }

// At returns the entry for id, growing the table with zero values as
// needed. The pointer is valid until the next At that grows the table.
func (t *BlockTable[T]) At(id VABlockID) *T {
	if id >= VABlockID(len(t.v)) {
		t.v = append(t.v, make([]T, int(id)+1-len(t.v))...)
	}
	return &t.v[id]
}

// Get returns the entry for id, or the zero value past the end. It never
// grows the table.
func (t *BlockTable[T]) Get(id VABlockID) T {
	if id < VABlockID(len(t.v)) {
		return t.v[id]
	}
	var zero T
	return zero
}

// Len returns one past the highest ID the table has grown to; IDs below
// it may still hold the zero value.
func (t *BlockTable[T]) Len() int { return len(t.v) }
