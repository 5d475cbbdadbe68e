package multigpu

import (
	"fmt"

	"uvmsim/internal/inject"
	"uvmsim/internal/mem"
	"uvmsim/internal/sim"
)

// Invariants is the cross-device counterpart of inject.Invariants: where
// the per-device checker audits one driver's conservation laws, this one
// audits the residency map against every device's address-space view.
// Violations panic with *inject.Violation so chaos harnesses recover
// multi-GPU failures exactly like single-GPU ones.
type Invariants struct {
	m      *Manager
	stride int
	events uint64
	checks uint64
}

// NewInvariants returns a checker over m running a deep audit every
// stride engine events (stride<=0 selects inject.DefaultStride).
func NewInvariants(m *Manager, stride int) *Invariants {
	if stride <= 0 {
		stride = inject.DefaultStride
	}
	return &Invariants{m: m, stride: stride}
}

// Observe is the engine-observer entry point; the core composes it with
// the per-device checkers behind a single observer slot.
func (v *Invariants) Observe(now sim.Time) {
	v.events++
	if v.events%uint64(v.stride) != 0 {
		return
	}
	v.checks++
	v.audit(now)
}

// Checks reports how many deep audits ran.
func (v *Invariants) Checks() uint64 { return v.checks }

// Final runs one unconditional audit at end of simulation.
func (v *Invariants) Final(now sim.Time) {
	v.checks++
	v.audit(now)
}

func (v *Invariants) audit(now sim.Time) {
	m := v.m
	// Map → views, in ascending block order: the owner's view holds
	// local backing and no remote mapping; host-owned blocks retain no
	// remote mappings (Released invalidates holders before dropping
	// ownership).
	for i := 0; i < m.blocks.Len(); i++ {
		id := mem.VABlockID(i)
		r := m.blocks.Get(id)
		if o := r.owner - 1; o >= 0 {
			blk := m.devs[o].Space.BlockIfExists(id)
			if blk == nil || !blk.Allocated {
				v.violate(now, fmt.Sprintf("block %d owned by device %d but not allocated in its view", id, o))
			}
			if blk != nil && blk.Remote {
				v.violate(now, fmt.Sprintf("block %d owned by device %d but marked remote in its own view", id, o))
			}
			continue
		}
		for d := range m.devs {
			if r.remote&(1<<uint(d)) == 0 {
				continue
			}
			if blk := m.devs[d].Space.BlockIfExists(id); blk != nil && blk.Remote {
				v.violate(now, fmt.Sprintf("block %d host-owned but device %d still holds a remote mapping", id, d))
			}
		}
	}
	// Views → map: every view's residency state must be claimed in the map,
	// and per-device residency must fit per-device capacity.
	for d, dev := range m.devs {
		allocated := 0
		dev.Space.ForEachBlock(func(b *mem.VABlock) {
			if b.Allocated {
				allocated++
				if m.Owner(b.ID) != d {
					v.violate(now, fmt.Sprintf("device %d view has block %d allocated but residency map says owner=%d", d, b.ID, m.Owner(b.ID)))
				}
			}
			if b.Remote {
				if m.blocks.Get(b.ID).remote&(1<<uint(d)) == 0 {
					v.violate(now, fmt.Sprintf("device %d view has block %d remote but residency map lists no such holder", d, b.ID))
				}
				if o := m.Owner(b.ID); o < 0 {
					v.violate(now, fmt.Sprintf("device %d view has block %d remote but no device owns it", d, b.ID))
				} else if o == d {
					v.violate(now, fmt.Sprintf("device %d view has block %d remote-mapped to itself", d, b.ID))
				}
			}
		})
		if used := dev.PMA.UsedChunks(); allocated > used {
			v.violate(now, fmt.Sprintf("device %d has %d allocated blocks but only %d used chunks", d, allocated, used))
		}
		if cap := dev.PMA.CapacityChunks(); dev.PMA.UsedChunks() > cap {
			v.violate(now, fmt.Sprintf("device %d uses %d chunks over capacity %d", d, dev.PMA.UsedChunks(), cap))
		}
	}
}

func (v *Invariants) violate(now sim.Time, msg string) {
	panic(&inject.Violation{Msg: fmt.Sprintf(
		"multigpu invariant violated at t=%dns (event %d, audit %d): %s",
		int64(now), v.events, v.checks, msg)})
}
