package evict

import (
	"testing"
	"testing/quick"

	"uvmsim/internal/mem"
	"uvmsim/internal/sim"
)

func blocks(n int) []*mem.VABlock {
	out := make([]*mem.VABlock, n)
	for i := range out {
		out[i] = &mem.VABlock{ID: mem.VABlockID(i)}
	}
	return out
}

func TestLRUOrder(t *testing.T) {
	l := NewLRU()
	bs := blocks(3)
	for _, b := range bs {
		l.Insert(b)
	}
	if l.Victim() != bs[0] {
		t.Fatal("victim should be the oldest insert")
	}
	l.Touch(bs[0]) // 0 becomes MRU; victim now 1
	if l.Victim() != bs[1] {
		t.Fatal("touch did not reorder")
	}
	l.Remove(bs[1])
	if l.Victim() != bs[2] || l.Len() != 2 {
		t.Fatal("remove wrong")
	}
}

func TestLRUFaultOnlyPathology(t *testing.T) {
	// The paper's §V-A observation: a block that was hottest early (many
	// touches) but then fully resident (no more faults) sinks to the tail.
	l := NewLRU()
	hot, cold1, cold2 := blocks(3)[0], blocks(3)[1], blocks(3)[2]
	l.Insert(hot)
	for i := 0; i < 100; i++ {
		l.Touch(hot) // heavily faulted early
	}
	l.Insert(cold1)
	l.Touch(cold1)
	l.Insert(cold2)
	l.Touch(cold2)
	// hot had the most touches but the oldest last-touch: it is the victim.
	if l.Victim() != hot {
		t.Fatal("fault-only LRU should evict the early-hot block")
	}
}

func TestLRUTail(t *testing.T) {
	l := NewLRU()
	bs := blocks(4)
	for _, b := range bs {
		l.Insert(b)
	}
	// The LRU end yields the blocks oldest first, one Remove at a time.
	for i, want := range bs {
		v := l.Victim()
		if v != want {
			t.Fatalf("victim %d = %v, want block %d", i, v, want.ID)
		}
		l.Remove(v)
	}
	if v := l.Victim(); v != nil || l.Len() != 0 {
		t.Fatalf("drained LRU: victim %v, len %d", v, l.Len())
	}
}

func TestLRUMisusePanics(t *testing.T) {
	l := NewLRU()
	b := blocks(1)[0]
	l.Insert(b)
	for name, fn := range map[string]func(){
		"duplicate insert": func() { l.Insert(b) },
		"touch missing":    func() { l.Touch(&mem.VABlock{ID: 99}) },
		"remove missing":   func() { l.Remove(&mem.VABlock{ID: 99}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestEmptyVictims(t *testing.T) {
	for _, p := range []Policy{NewLRU(), NewFIFO(), NewRandom(sim.NewRNG(1)), NewAccessAware()} {
		if p.Victim() != nil {
			t.Errorf("%s: victim on empty policy", p.Name())
		}
		if p.Len() != 0 {
			t.Errorf("%s: nonzero len", p.Name())
		}
	}
}

func TestFIFOIgnoresTouch(t *testing.T) {
	f := NewFIFO()
	bs := blocks(3)
	for _, b := range bs {
		f.Insert(b)
	}
	f.Touch(bs[0])
	f.Touch(bs[0])
	if f.Victim() != bs[0] {
		t.Fatal("FIFO reordered on touch")
	}
	f.Remove(bs[0])
	if f.Victim() != bs[1] {
		t.Fatal("FIFO order wrong after remove")
	}
}

func TestRandomVictimIsMember(t *testing.T) {
	r := NewRandom(sim.NewRNG(42))
	bs := blocks(10)
	for _, b := range bs {
		r.Insert(b)
	}
	seen := map[mem.VABlockID]bool{}
	for i := 0; i < 200; i++ {
		v := r.Victim()
		if v == nil || int(v.ID) >= 10 {
			t.Fatal("invalid victim")
		}
		seen[v.ID] = true
	}
	if len(seen) < 5 {
		t.Errorf("random victims not diverse: %d distinct", len(seen))
	}
	r.Remove(bs[3])
	for i := 0; i < 100; i++ {
		if r.Victim() == bs[3] {
			t.Fatal("removed block returned as victim")
		}
	}
	if r.Len() != 9 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestAccessAwareSecondChance(t *testing.T) {
	a := NewAccessAware()
	hot, cold := &mem.VABlock{ID: 1}, &mem.VABlock{ID: 2}
	a.Insert(hot)
	a.Insert(cold)
	// hot is at the tail (inserted first, never touched) but its access
	// counter advanced: it must be skipped in favor of cold.
	hot.GPUAccesses = 50
	if v := a.Victim(); v != cold {
		t.Fatalf("victim = %v, want cold block", v.ID)
	}
	// Second call without further accesses: hot was cycled to the head,
	// cold remains the victim.
	if v := a.Victim(); v != cold {
		t.Fatal("second victim changed unexpectedly")
	}
}

func TestAccessAwareFallsBackWhenAllHot(t *testing.T) {
	a := NewAccessAware()
	bs := blocks(3)
	for _, b := range bs {
		a.Insert(b)
	}
	for _, b := range bs {
		b.GPUAccesses = 10
	}
	v := a.Victim()
	if v == nil {
		t.Fatal("no victim despite nonempty policy")
	}
}

func TestNewFactory(t *testing.T) {
	for _, name := range []string{"lru", "fifo", "random", "access-aware", ""} {
		p, err := New(name, sim.NewRNG(1))
		if err != nil || p == nil {
			t.Errorf("New(%q) failed: %v", name, err)
		}
	}
	if _, err := New("clock", nil); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := New("random", nil); err == nil {
		t.Error("random without RNG accepted")
	}
}

// Property: for any op sequence, Len matches a reference set and Victim
// is always a member.
func TestPolicyMembershipProperty(t *testing.T) {
	type op struct {
		Kind uint8 // 0 insert, 1 touch, 2 remove
		ID   uint8
	}
	for _, mk := range []func() Policy{
		func() Policy { return NewLRU() },
		func() Policy { return NewFIFO() },
		func() Policy { return NewRandom(sim.NewRNG(7)) },
		func() Policy { return NewAccessAware() },
	} {
		p := mk()
		f := func(ops []op) bool {
			p := mk()
			live := map[mem.VABlockID]*mem.VABlock{}
			for _, o := range ops {
				id := mem.VABlockID(o.ID % 16)
				switch o.Kind % 3 {
				case 0:
					if _, ok := live[id]; !ok {
						b := &mem.VABlock{ID: id}
						live[id] = b
						p.Insert(b)
					}
				case 1:
					if b, ok := live[id]; ok {
						p.Touch(b)
					}
				case 2:
					if b, ok := live[id]; ok {
						p.Remove(b)
						delete(live, id)
					}
				}
				if p.Len() != len(live) {
					return false
				}
				v := p.Victim()
				if len(live) == 0 {
					if v != nil {
						return false
					}
				} else if v == nil || live[v.ID] != v {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
	}
}
