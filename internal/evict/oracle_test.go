package evict

import (
	"slices"
	"testing"

	"uvmsim/internal/mem"
	"uvmsim/internal/sim"
)

// refPolicy is the naive reference every policy is checked against: one
// slice of registered blocks, oldest (or least recently touched) first,
// searched linearly. It implements the §V-A / §VI-B selection rules
// directly, with none of the optimized structures.
type refPolicy struct {
	kind     string // "lru", "fifo", "random" or "access-aware"
	order    []*mem.VABlock
	lastSeen map[*mem.VABlock]uint64 // access-aware only
	rng      *sim.RNG                // random only
}

func (r *refPolicy) find(b *mem.VABlock) int { return slices.Index(r.order, b) }

func (r *refPolicy) toBack(i int) {
	b := r.order[i]
	r.order = append(slices.Delete(r.order, i, i+1), b)
}

func (r *refPolicy) Insert(b *mem.VABlock) {
	r.order = append(r.order, b)
	r.lastSeen[b] = b.GPUAccesses
}

func (r *refPolicy) Touch(b *mem.VABlock) {
	if r.kind == "lru" || r.kind == "access-aware" {
		r.toBack(r.find(b))
	}
}

func (r *refPolicy) Remove(b *mem.VABlock) {
	i := r.find(b)
	if r.kind == "random" {
		// Random's membership order is its swap-delete layout: the victim
		// is drawn by position, so the reference must keep the same one.
		last := len(r.order) - 1
		r.order[i] = r.order[last]
		r.order = r.order[:last]
		return
	}
	r.order = slices.Delete(r.order, i, i+1)
}

func (r *refPolicy) Victim() *mem.VABlock {
	if len(r.order) == 0 {
		return nil
	}
	switch r.kind {
	case "random":
		return r.order[r.rng.Intn(len(r.order))]
	case "access-aware":
		for range len(r.order) {
			v := r.order[0]
			if v.GPUAccesses <= r.lastSeen[v] {
				return v
			}
			r.lastSeen[v] = v.GPUAccesses
			r.toBack(0)
		}
	}
	return r.order[0]
}

// TestPoliciesMatchReference drives each policy and the reference with
// the same random Insert/Touch/Remove/Victim sequence (plus GPU access
// counter bumps for access-aware) and requires identical victims and
// membership at every step. Block IDs are sparse so table growth is
// exercised, and blocks churn in and out so entries are reused.
func TestPoliciesMatchReference(t *testing.T) {
	const seed = 7
	for _, kind := range []string{"lru", "fifo", "random", "access-aware"} {
		t.Run(kind, func(t *testing.T) {
			for trial := uint64(0); trial < 20; trial++ {
				p, err := New(kind, sim.NewRNG(seed+trial))
				if err != nil {
					t.Fatal(err)
				}
				ref := &refPolicy{kind: kind, lastSeen: map[*mem.VABlock]uint64{}, rng: sim.NewRNG(seed + trial)}
				driveAgainstReference(t, p, ref, sim.NewRNG(1000+trial))
			}
		})
	}
}

func driveAgainstReference(t *testing.T, p Policy, ref *refPolicy, ops *sim.RNG) {
	t.Helper()
	pool := make([]*mem.VABlock, 24)
	for i := range pool {
		pool[i] = &mem.VABlock{ID: mem.VABlockID(i*i + 3*i)}
	}
	for step := 0; step < 600; step++ {
		b := pool[ops.Intn(len(pool))]
		in := ref.find(b) >= 0
		switch op := ops.Intn(10); {
		case op < 3:
			if in {
				continue
			}
			p.Insert(b)
			ref.Insert(b)
		case op < 5:
			if !in {
				continue
			}
			p.Touch(b)
			ref.Touch(b)
		case op < 7:
			if !in {
				continue
			}
			p.Remove(b)
			ref.Remove(b)
		case op < 8:
			b.GPUAccesses += uint64(1 + ops.Intn(3))
		default:
			if got, want := p.Victim(), ref.Victim(); got != want {
				t.Fatalf("step %d: victim = %v, reference %v", step, got, want)
			}
		}
		if p.Len() != len(ref.order) {
			t.Fatalf("step %d: len = %d, reference %d", step, p.Len(), len(ref.order))
		}
	}
	// Draining through Victim/Remove yields the reference order.
	for len(ref.order) > 0 {
		got, want := p.Victim(), ref.Victim()
		if got != want {
			t.Fatalf("drain: victim = %v, reference %v", got, want)
		}
		p.Remove(got)
		ref.Remove(want)
	}
	if v := p.Victim(); v != nil || p.Len() != 0 {
		t.Fatalf("drained policy: victim %v, len %d", v, p.Len())
	}
}
