package thrash

import (
	"testing"

	"uvmsim/internal/evict"
	"uvmsim/internal/mem"
)

// TestDetectorChurnAllocFree pins the detector's steady-state eviction
// churn at zero allocations: once every block has an entry in the
// per-block table, bounces, pins and victim skips only rewrite entries.
func TestDetectorChurnAllocFree(t *testing.T) {
	d, err := New(DefaultConfig(), evict.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	bs := make([]*mem.VABlock, 8)
	for i := range bs {
		bs[i] = block(i)
		d.Insert(bs[i])
	}
	cycle := func() {
		v := d.Victim()
		d.Remove(v)
		d.Insert(v) // an immediate bounce: counts, and pins the block
	}
	for range 2 * len(bs) {
		cycle() // warm: every block has bounced once
	}
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("thrash churn allocates %v times per cycle, want 0", n)
	}
	if s := d.Stats(); s.Pins == 0 || s.VictimSkips == 0 {
		t.Errorf("churn exercised pins=%d skips=%d, want both > 0", s.Pins, s.VictimSkips)
	}
}
