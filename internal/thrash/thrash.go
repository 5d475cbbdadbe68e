// Package thrash implements block-level thrashing detection with
// pinning, modeled on the production driver's uvm_perf_thrashing
// module. The paper (§V, §VI-A) shows that fault-only LRU can evict hot
// VABlocks immediately before they are paged back in; this detector
// notices blocks that bounce — get re-allocated shortly after eviction —
// and pins them (excludes them from victim selection) for a cooldown,
// breaking the evict-and-refault cycle.
//
// Proximity is measured in global eviction counts rather than wall time,
// which makes the detector scale-free: "shortly after" means "within the
// last W evictions", however fast or slow the machine runs.
//
// The detector wraps any eviction policy, so it composes with lru, fifo,
// random, and access-aware.
package thrash

import (
	"fmt"

	"uvmsim/internal/evict"
	"uvmsim/internal/mem"
)

// Config tunes the detector. All knobs are counted in global evictions.
type Config struct {
	// WindowEvictions: a block re-allocated within this many global
	// evictions of its own eviction counts as a bounce.
	WindowEvictions uint64
	// Threshold is how many consecutive bounces pin a block.
	Threshold int
	// PinEvictions is how many global evictions a pin lease lasts.
	PinEvictions uint64
}

// DefaultConfig pins a block on its first bounce inside a 16-eviction
// window, for a 64-eviction lease: a block that came straight back after
// eviction is exactly the evict-before-use case worth protecting.
func DefaultConfig() Config {
	return Config{WindowEvictions: 16, Threshold: 1, PinEvictions: 64}
}

// Stats reports detector activity.
type Stats struct {
	ThrashEvents uint64 // re-allocations inside the window
	Pins         uint64 // blocks pinned
	VictimSkips  uint64 // victim candidates skipped because pinned
}

// Detector wraps an eviction policy with thrash pinning. It implements
// evict.Policy.
type Detector struct {
	cfg   Config
	inner evict.Policy

	clock  uint64 // global eviction counter
	blocks mem.BlockTable[blockState]

	stats Stats
}

// blockState is the detector's record of one block. The zero value is a
// block that is not awaiting re-allocation, has no bounce streak and
// holds no pin. Clock readings start at 1, so 0 stands for "none".
type blockState struct {
	evictedAt   uint64 // clock at the eviction not yet followed by re-allocation
	bounces     int    // consecutive bounces
	pinnedUntil uint64 // clock at which the pin lease expires
}

// New wraps inner with a detector.
func New(cfg Config, inner evict.Policy) (*Detector, error) {
	if inner == nil {
		return nil, fmt.Errorf("thrash: inner policy is required")
	}
	if cfg.Threshold < 1 {
		return nil, fmt.Errorf("thrash: threshold %d must be >= 1", cfg.Threshold)
	}
	if cfg.WindowEvictions == 0 || cfg.PinEvictions == 0 {
		return nil, fmt.Errorf("thrash: window and pin lease must be positive")
	}
	return &Detector{cfg: cfg, inner: inner}, nil
}

// Name implements evict.Policy.
func (d *Detector) Name() string { return d.inner.Name() + "+thrash" }

// Len implements evict.Policy.
func (d *Detector) Len() int { return d.inner.Len() }

// Stats returns detector activity counters.
func (d *Detector) Stats() Stats { return d.stats }

// Pinned reports whether block id currently holds a pin lease.
func (d *Detector) Pinned(id mem.VABlockID) bool {
	return d.clock < d.blocks.Get(id).pinnedUntil
}

// Insert implements evict.Policy: a (re-)allocation. Re-allocation soon
// (in eviction counts) after eviction is the thrash signal.
func (d *Detector) Insert(b *mem.VABlock) {
	if st := d.blocks.At(b.ID); st.evictedAt != 0 {
		if d.clock-st.evictedAt <= d.cfg.WindowEvictions {
			st.bounces++
			d.stats.ThrashEvents++
			if st.bounces >= d.cfg.Threshold && !d.Pinned(b.ID) {
				st.pinnedUntil = d.clock + d.cfg.PinEvictions
				d.stats.Pins++
			}
		} else {
			st.bounces = 0 // the bounce streak cooled off
		}
		st.evictedAt = 0
	}
	d.inner.Insert(b)
}

// Touch implements evict.Policy.
func (d *Detector) Touch(b *mem.VABlock) { d.inner.Touch(b) }

// Remove implements evict.Policy: an eviction (or teardown).
func (d *Detector) Remove(b *mem.VABlock) {
	d.clock++
	d.blocks.At(b.ID).evictedAt = d.clock
	d.inner.Remove(b)
}

// Victim implements evict.Policy: the inner victim, skipping pinned
// blocks by cycling them to the MRU side, bounded to one full rotation
// so eviction always stays possible even when everything is pinned.
func (d *Detector) Victim() *mem.VABlock {
	n := d.inner.Len()
	for i := 0; i < n; i++ {
		v := d.inner.Victim()
		if v == nil {
			return nil
		}
		if !d.Pinned(v.ID) {
			return v
		}
		d.stats.VictimSkips++
		d.inner.Touch(v)
	}
	return d.inner.Victim()
}
