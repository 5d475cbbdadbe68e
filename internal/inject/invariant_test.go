package inject

import (
	"strings"
	"testing"

	"uvmsim/internal/faultbuf"
	"uvmsim/internal/mem"
	"uvmsim/internal/pma"
	"uvmsim/internal/sim"
)

// invRig assembles the minimal system the checker observes: engine,
// buffer, address space with one 4 MB range, and a PMA of capBytes.
func invRig(t *testing.T, capBytes int64) (*sim.Engine, *faultbuf.Buffer, *mem.AddressSpace, *pma.PMA) {
	t.Helper()
	eng := sim.NewEngine()
	buf, err := faultbuf.New(64)
	if err != nil {
		t.Fatal(err)
	}
	space := mem.NewAddressSpace(mem.DefaultGeometry())
	if _, err := space.Alloc(4<<20, "data"); err != nil {
		t.Fatal(err)
	}
	pcfg := pma.DefaultConfig(capBytes)
	pcfg.RMJitterFrac = 0
	pm, err := pma.New(pcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng, buf, space, pm
}

// expectViolation runs fn and asserts it panics with a *Violation whose
// message contains want.
func expectViolation(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no violation raised, want one containing %q", want)
		}
		v, ok := r.(*Violation)
		if !ok {
			panic(r) // not ours; let the real panic through
		}
		if !strings.Contains(v.Msg, want) {
			t.Errorf("violation %q does not contain %q", v.Msg, want)
		}
		if !strings.Contains(v.Msg, "replay: seed=") {
			t.Errorf("violation lacks replay recipe: %q", v.Msg)
		}
		if v.Error() != v.Msg {
			t.Error("Error() does not return the message")
		}
	}()
	fn()
}

func TestInvariantsCleanRun(t *testing.T) {
	eng, buf, space, pm := invRig(t, 64<<20)
	inv := NewInvariants(eng, buf, space, pm, 11, 1) // deep-check every event
	inv.Attach()
	eng.At(10, func() {
		buf.Put(0, false, 0, eng.Now(), eng.Now())
		buf.Put(1, false, 0, eng.Now(), eng.Now())
	})
	eng.At(20, func() { buf.FetchReady(10, eng.Now()) })
	eng.At(30, func() {})
	eng.Run()
	if inv.Checks() != 3 {
		t.Errorf("checks = %d, want 3 (one per event)", inv.Checks())
	}
	if inv.DeepChecks() != 3 {
		t.Errorf("deep checks = %d, want 3 at stride 1", inv.DeepChecks())
	}
	if inv.Violations() != 0 {
		t.Errorf("violations = %d in a clean run", inv.Violations())
	}
	if err := inv.Final(); err != nil {
		t.Errorf("Final() = %v for a drained buffer", err)
	}
}

func TestInvariantsDefaultStride(t *testing.T) {
	eng, buf, space, pm := invRig(t, 64<<20)
	inv := NewInvariants(eng, buf, space, pm, 0, 0)
	inv.Attach()
	for i := 0; i < 130; i++ {
		eng.At(sim.Time(i+1), func() {})
	}
	eng.Run()
	if inv.Checks() != 130 {
		t.Errorf("checks = %d, want 130", inv.Checks())
	}
	// Stride 64: deep sweeps at events 64 and 128.
	if inv.DeepChecks() != 2 {
		t.Errorf("deep checks = %d, want 2 at default stride", inv.DeepChecks())
	}
}

func TestResidentWithoutBackingViolates(t *testing.T) {
	eng, buf, space, pm := invRig(t, 64<<20)
	inv := NewInvariants(eng, buf, space, pm, 11, 1)
	inv.Attach()
	eng.At(10, func() {
		// Corruption: a page marked resident in a block that holds no
		// physical backing.
		space.Block(0).Resident.Set(3)
	})
	expectViolation(t, "without physical backing", func() { eng.Run() })
	if inv.Violations() != 1 {
		t.Errorf("violations = %d, want 1", inv.Violations())
	}
}

func TestLowestBlockViolationReportsFirst(t *testing.T) {
	// Two corrupt blocks, corrupted highest ID first: the residency sweep
	// visits blocks in ascending ID order, so the report always names
	// block 0 whatever the corruption order.
	eng, buf, space, pm := invRig(t, 64<<20)
	inv := NewInvariants(eng, buf, space, pm, 11, 1)
	inv.Attach()
	eng.At(10, func() {
		space.Block(1).Resident.Set(5)
		space.Block(0).Resident.Set(3)
	})
	expectViolation(t, "block 0 holds 1 resident pages without physical backing", func() { eng.Run() })
}

func TestAllocatedOverCapacityViolates(t *testing.T) {
	// PMA of one 2 MB chunk but two blocks claiming physical backing.
	eng, buf, space, pm := invRig(t, 2<<20)
	inv := NewInvariants(eng, buf, space, pm, 11, 1)
	inv.Attach()
	eng.At(10, func() {
		space.Block(0).Allocated = true
		space.Block(1).Allocated = true
	})
	expectViolation(t, "VABlocks allocated", func() { eng.Run() })
}

func TestRemoteBlocksExemptFromSweep(t *testing.T) {
	// Remote-mapped blocks are fully "resident" without GPU backing by
	// design; the sweep must not flag them.
	eng, buf, space, pm := invRig(t, 64<<20)
	b := space.Block(0)
	b.Remote = true
	for i := 0; i < 5; i++ {
		b.Resident.Set(i)
	}
	inv := NewInvariants(eng, buf, space, pm, 11, 1)
	inv.Attach()
	eng.At(10, func() {})
	eng.Run()
	if inv.Violations() != 0 {
		t.Errorf("remote block tripped %d violations", inv.Violations())
	}
}

func TestFinalReportsLostFaults(t *testing.T) {
	eng, buf, space, pm := invRig(t, 64<<20)
	inv := NewInvariants(eng, buf, space, pm, 11, 1)
	buf.Put(0, false, 0, eng.Now(), eng.Now())
	err := inv.Final()
	if err == nil || !strings.Contains(err.Error(), "never serviced") {
		t.Errorf("Final() = %v, want lost-fault error", err)
	}
	buf.FetchReady(1, 0)
	if err := inv.Final(); err != nil {
		t.Errorf("Final() = %v after drain", err)
	}
}

func TestDetachStopsChecking(t *testing.T) {
	eng, buf, space, pm := invRig(t, 64<<20)
	inv := NewInvariants(eng, buf, space, pm, 11, 1)
	inv.Attach()
	eng.At(1, func() {})
	eng.At(2, func() { inv.Detach() })
	eng.At(3, func() {
		// Would violate if still attached.
		space.Block(0).Resident.Set(0)
	})
	eng.At(4, func() {})
	eng.Run()
	if inv.Checks() != 1 {
		t.Errorf("checks = %d after detach, want 1", inv.Checks())
	}
}

func TestViolationIncludesTrail(t *testing.T) {
	eng, buf, space, pm := invRig(t, 64<<20)
	inv := NewInvariants(eng, buf, space, pm, 11, 1)
	inv.Attach()
	// A few healthy events populate the trail before the corruption.
	for i := 1; i <= 5; i++ {
		at := sim.Time(i)
		eng.At(at, func() { buf.Put(mem.PageID(at), false, 0, at, at) })
	}
	eng.At(10, func() { space.Block(0).Resident.Set(0) })
	expectViolation(t, "recent events", func() { eng.Run() })
}
