// Package stats provides the instrumentation primitives the simulated
// driver uses to attribute time to the same categories the paper reports:
// pre/post-processing, fault servicing (split into PMA allocation,
// migration, and mapping), and replay policy.
package stats

import (
	"fmt"
	"sort"
	"strings"

	"uvmsim/internal/sim"
)

// Phase identifies a driver cost category from the paper's figures.
type Phase int

// Driver phases, ordered as the paper's breakdown stacks them.
const (
	// PhasePreprocess covers fetching fault pointers/entries from the GPU,
	// ready-polling, bookkeeping, and VABlock binning/sorting (Fig. 3
	// "pre/post-processing").
	PhasePreprocess Phase = iota
	// PhasePMAAlloc is the call into the (proprietary) physical memory
	// allocator, including over-allocation (Fig. 4 "PMA Alloc Pages").
	PhasePMAAlloc
	// PhaseMigrate covers staging, zeroing, and DMA of page data
	// (Fig. 4 "Migrate Pages").
	PhaseMigrate
	// PhaseMap covers page-table updates and memory barriers (Fig. 4
	// "Map Pages").
	PhaseMap
	// PhaseReplay is the fault-replay policy cost: buffer flushes and
	// replay notifications (Fig. 3 "replay policy").
	PhaseReplay
	// PhaseEvict is time spent selecting victims, writing back dirty
	// pages, and restarting the faulting path (§V-A direct costs).
	PhaseEvict
	numPhases
)

var phaseNames = [...]string{
	"preprocess",
	"pma_alloc",
	"migrate",
	"map",
	"replay",
	"evict",
}

// String returns the snake_case phase name used in table headers.
func (p Phase) String() string {
	if p < 0 || int(p) >= len(phaseNames) {
		return fmt.Sprintf("phase(%d)", int(p))
	}
	return phaseNames[p]
}

// Phases lists all phases in display order.
func Phases() []Phase {
	out := make([]Phase, numPhases)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}

// Breakdown accumulates simulated time per phase. The zero value is ready
// to use.
type Breakdown struct {
	dur [numPhases]sim.Duration
}

// Add charges d to phase p.
func (b *Breakdown) Add(p Phase, d sim.Duration) { b.dur[p] += d }

// Get returns the accumulated time for phase p.
func (b *Breakdown) Get(p Phase) sim.Duration { return b.dur[p] }

// Total returns the sum across all phases (total time inside the driver).
func (b *Breakdown) Total() sim.Duration {
	var t sim.Duration
	for _, d := range b.dur {
		t += d
	}
	return t
}

// Service returns the fault-servicing subtotal (PMA + migrate + map), the
// paper's "service" category.
func (b *Breakdown) Service() sim.Duration {
	return b.dur[PhasePMAAlloc] + b.dur[PhaseMigrate] + b.dur[PhaseMap]
}

// Merge adds other's accumulations into b.
func (b *Breakdown) Merge(other *Breakdown) {
	for i := range b.dur {
		b.dur[i] += other.dur[i]
	}
}

// String renders a compact single-line summary.
func (b *Breakdown) String() string {
	parts := make([]string, 0, numPhases)
	for _, p := range Phases() {
		if b.dur[p] != 0 {
			parts = append(parts, fmt.Sprintf("%s=%v", p, b.dur[p]))
		}
	}
	if len(parts) == 0 {
		return "empty"
	}
	return strings.Join(parts, " ")
}

// Counter is a named monotonically increasing event count.
type Counter struct {
	Name  string
	Value uint64
}

// CounterSet holds named counters (faults, replays, evictions, ...).
type CounterSet struct {
	m map[string]uint64
}

// NewCounterSet returns an empty counter set.
func NewCounterSet() *CounterSet { return &CounterSet{m: make(map[string]uint64)} }

// Inc adds delta to the named counter.
func (c *CounterSet) Inc(name string, delta uint64) { c.m[name] += delta }

// Set overwrites the named counter with an absolute value. It mirrors
// cumulative counts maintained by another component (e.g. the fault
// buffer's drop tally) into the set; callers must keep the mirrored
// value monotonic so run deltas stay meaningful.
func (c *CounterSet) Set(name string, v uint64) { c.m[name] = v }

// Get returns the named counter value (0 when absent).
func (c *CounterSet) Get(name string) uint64 { return c.m[name] }

// Merge adds other's counters into c.
func (c *CounterSet) Merge(other *CounterSet) {
	for k, v := range other.m {
		c.m[k] += v
	}
}

// Sorted returns counters ordered by name for stable output.
func (c *CounterSet) Sorted() []Counter {
	out := make([]Counter, 0, len(c.m))
	for k, v := range c.m {
		out = append(out, Counter{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
