package evict

import "testing"

// TestLRUChurnAllocFree pins the steady-state Insert/Touch/Remove cycle
// at zero allocations: a re-inserted block reuses its own entry in the
// ID-indexed node table, so the whole eviction churn path never reaches
// the allocator.
func TestLRUChurnAllocFree(t *testing.T) {
	l := NewLRU()
	bs := blocks(8)
	for _, b := range bs {
		l.Insert(b)
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		v := l.Victim()
		l.Remove(v)
		l.Insert(v)
		l.Touch(bs[i%len(bs)])
		i++
	}); n != 0 {
		t.Errorf("LRU churn allocates %v times per cycle, want 0", n)
	}
}
