package multigpu

import (
	"testing"

	"uvmsim/internal/mem"
	"uvmsim/internal/sim"
)

// scanResidency is the brute-force reference for the residency table:
// it derives block id's owner and remote-holder mask from nothing but
// every device's address-space view. The owner is the one device whose
// view holds local backing (-1 when none does); the mask has a bit for
// every device whose view marks the block remote.
func scanResidency(t *testing.T, h *harness, id mem.VABlockID) (owner int, remote uint64) {
	t.Helper()
	owner = -1
	for d, dev := range h.devs {
		blk := dev.Space.Block(id)
		if blk.Allocated {
			if owner >= 0 {
				t.Fatalf("block %d allocated on devices %d and %d", id, owner, d)
			}
			owner = d
		}
		if blk.Remote {
			remote |= 1 << uint(d)
		}
	}
	return owner, remote
}

// TestResidencyMatchesDeviceScan drives the manager through random
// claim / release / remote-map / access-counter-migration steps, the
// way K per-device drivers do, and after every step compares the
// residency table with a brute-force scan of every device's view. A
// reference remote-access counter per (block, device), reset whenever
// ownership changes, predicts exactly which access triggers a migration.
func TestResidencyMatchesDeviceScan(t *testing.T) {
	const K, blocks, threshold = 3, 6, 2
	var migrations, invalidations uint64
	for seed := uint64(1); seed <= 10; seed++ {
		h := newHarness(t, K, blocks, Config{Policy: AccessCounter, Threshold: threshold})
		inv := NewInvariants(h.m, 1)
		ops := sim.NewRNG(seed)
		var counts [blocks][K]int
		for step := 0; step < 300; step++ {
			id := mem.VABlockID(ops.Intn(blocks))
			d := ops.Intn(K)
			blk := h.devs[d].Space.Block(id)
			owner := h.m.Owner(id)
			switch ops.Intn(4) {
			case 0: // first touch on a host-resident block
				if owner < 0 {
					h.claim(t, d, id)
					counts[id] = [K]int{}
				}
			case 1: // the owner evicts
				if owner >= 0 {
					own := h.devs[owner].Space.Block(id)
					h.devs[owner].Evict.Remove(own)
					h.devs[owner].PMA.Free()
					own.Resident.Reset()
					own.Dirty.Reset()
					own.Allocated = false
					h.m.DriverHook(owner).Released(own)
					counts[id] = [K]int{}
				}
			case 2: // a peer faults on an owned block
				if owner >= 0 && owner != d && !blk.Remote {
					h.m.DriverHook(d).RemoteMap(blk)
				}
			case 3: // a remote holder's accesses may trigger a migration
				if blk.Remote && owner >= 0 {
					page := h.devs[d].Space.Geometry().FirstPage(id)
					h.m.RemoteAccess(d, page, ops.Intn(2) == 0, blk)
					h.eng.Run()
					want := owner
					if counts[id][d]++; counts[id][d] == threshold {
						want = d
						counts[id] = [K]int{}
					}
					if got := h.m.Owner(id); got != want {
						t.Fatalf("seed %d step %d: block %d owner = %d after remote access from %d, want %d", seed, step, id, got, d, want)
					}
				}
			}
			for b := mem.VABlockID(0); b < blocks; b++ {
				wantOwner, wantRemote := scanResidency(t, h, b)
				if got := h.m.Owner(b); got != wantOwner {
					t.Fatalf("seed %d step %d: block %d owner = %d, device scan says %d", seed, step, b, got, wantOwner)
				}
				if got := h.m.blocks.Get(b).remote; got != wantRemote {
					t.Fatalf("seed %d step %d: block %d remote mask = %b, device scan says %b", seed, step, b, got, wantRemote)
				}
			}
			inv.Final(h.eng.Now())
		}
		migrations += h.m.Registry().Counter("p2p_migrations").Get()
		invalidations += h.m.Registry().Counter("p2p_invalidations").Get()
	}
	if migrations == 0 || invalidations == 0 {
		t.Errorf("walk exercised %d migrations and %d invalidations, want both > 0", migrations, invalidations)
	}
}
