package serve

import (
	"testing"

	"uvmsim/internal/sim"
	"uvmsim/internal/sweep"
)

// SimRequestOf and sweepRequest are inverses: a cell mapped onto the
// single-cell wire form and lifted back into a singleton sweep expands
// to exactly the cell it started from, at K=1 and K=4.
func TestSimRequestOfRoundTrip(t *testing.T) {
	k1 := sweep.Cell{
		Workload: "regular", GPUMemoryBytes: 16 << 20, Seed: 3, Footprint: 1.25,
		Prefetch: "none", Replay: "once", Evict: "fifo", Batch: 128,
		VABlockBytes: 1 << 20, SimDeadlineNs: 2e9, MaxEvents: 1 << 24, LivelockWindow: 1 << 16,
	}
	k4 := k1
	k4.Gpus, k4.Migration = 4, "access-counter"
	for _, c := range []sweep.Cell{k1, k4} {
		req, ok := SimRequestOf(c)
		if !ok {
			t.Fatalf("%s: not expressible on the wire", c.Label())
		}
		spec := req.sweepRequest().withDefaults().spec(sim.Budget{}, sim.Budget{})
		configs, err := spec.Configs()
		if err != nil || len(configs) != 1 {
			t.Fatalf("%s: %d configs, err %v", c.Label(), len(configs), err)
		}
		if got := spec.Cell(configs[0]); got != c {
			t.Errorf("round trip:\n got %+v\nwant %+v", got, c)
		}
	}
	inexact := k1
	inexact.GPUMemoryBytes += 1 << 10 // fractional MiB
	if _, ok := SimRequestOf(inexact); ok {
		t.Error("fractional-MiB cell claimed an exact wire form")
	}
}
