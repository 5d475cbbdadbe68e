// Package multigpu generalizes the single-GPU UVM model to K devices
// sharing one managed address space, following the MGSim/MGMark line of
// multi-GPU simulators: per-device drivers, fault buffers, and eviction
// policies coordinate through a shared residency map (VABlock → owning
// device | host, plus per-device remote-mapping state), and peer traffic
// rides an interconnect fabric whose channels contend with each device's
// host-link DMA engines.
//
// Ownership rules (DESIGN.md §15):
//
//   - A block is owned by at most one device at a time; ownership is
//     claimed when a device allocates physical backing for it
//     (first-touch pins placement there).
//   - A device faulting on a peer-owned block receives a remote mapping:
//     its view marks the block Remote with every valid page "resident"
//     through the fabric, and every access streams over the peer channel
//     to the owner.
//   - When the owner evicts a block, ownership returns to the host and
//     every peer's remote mapping is invalidated; the next access on any
//     device re-faults and re-services from host memory (the NUMA-thrash
//     regime the scaling experiments measure).
//   - Under the access-counter policy, a device whose remote-access count
//     for a block reaches the threshold triggers a peer-to-peer
//     migration: ownership and pages move to the accessing device in one
//     atomic bookkeeping flip, with the transfer's cost modeled as
//     fabric-channel plus DMA-engine occupancy on both ends.
//
// Everything runs on the single simulation engine, so K>1 systems stay
// deterministic at any host parallelism exactly like K=1.
package multigpu

import (
	"fmt"

	"uvmsim/internal/driver"
	"uvmsim/internal/evict"
	"uvmsim/internal/mem"
	"uvmsim/internal/obs"
	"uvmsim/internal/pma"
	"uvmsim/internal/sim"
	"uvmsim/internal/xfer"
)

// Policy selects how pages are placed across devices.
type Policy int

// Migration policies.
const (
	// FirstTouch pins a block to the first device that allocates backing
	// for it; peers access it remotely until the owner evicts it.
	FirstTouch Policy = iota
	// AccessCounter migrates a block to a remote accessor once that
	// device's access counter for the block reaches the threshold
	// (Volta-style access-counter migration).
	AccessCounter
)

// String names the policy as it appears in labels and CLI flags.
func (p Policy) String() string {
	switch p {
	case FirstTouch:
		return "first-touch"
	case AccessCounter:
		return "access-counter"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy converts a policy name; "" selects the default FirstTouch.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "first-touch", "":
		return FirstTouch, nil
	case "access-counter":
		return AccessCounter, nil
	default:
		return 0, fmt.Errorf("multigpu: unknown migration policy %q", s)
	}
}

// DefaultThreshold is the access-counter migration threshold when none
// is configured: remote accesses to one block from one device before a
// migration triggers.
const DefaultThreshold = 8

// MaxDevices bounds K; remote holders are tracked in a 64-bit mask.
const MaxDevices = 64

// Device is one GPU's component bundle as the manager sees it. Each
// device has its own address-space view (identical range layout across
// views, so PageIDs and VABlockIDs are global), allocator, eviction
// policy, and host link.
type Device struct {
	ID     int
	Space  *mem.AddressSpace
	PMA    *pma.PMA
	Evict  evict.Policy
	Link   *xfer.Link
	Tracer *obs.Tracer // optional span tracing; nil-safe
}

// Config tunes the manager.
type Config struct {
	// Policy is the migration policy.
	Policy Policy
	// Threshold is the access-counter migration threshold (0 selects
	// DefaultThreshold). Ignored under FirstTouch.
	Threshold int
	// Peer describes every peer↔peer channel (0 values select
	// xfer.DefaultNVLink2).
	Peer xfer.LinkConfig
}

// Manager is the shared residency map plus the interconnect fabric: the
// coordination point between the K per-device driver instances.
type Manager struct {
	eng  *sim.Engine
	cfg  Config
	devs []*Device
	fab  *Fabric

	// blocks is the residency map proper, one record per VABlock.
	blocks mem.BlockTable[residency]

	reg               *obs.Registry
	remoteAccesses    *obs.Counter
	migrations        *obs.Counter
	migrationsAborted *obs.Counter
	invalidations     *obs.Counter
}

// residency is the shared map's record of one VABlock. The zero value is
// a host-resident block (the initial state and the state after the owner
// evicts) with no remote holders.
type residency struct {
	// owner is the device holding the block's physical backing, plus
	// one; 0 means host-resident.
	owner int
	// remote is the bitmask of devices holding remote mappings.
	remote uint64
	// counts is the per-device remote-access counter feeding the
	// AccessCounter policy: allocated on the block's first counted
	// access, zeroed (not freed) when ownership changes, nil under
	// FirstTouch.
	counts []uint32
}

// NewManager wires the shared residency map and fabric over devs. Every
// device must present the identical range layout in its address-space
// view (the manager addresses blocks by global VABlockID).
func NewManager(eng *sim.Engine, cfg Config, devs []*Device) (*Manager, error) {
	if len(devs) < 2 {
		return nil, fmt.Errorf("multigpu: need at least 2 devices, got %d", len(devs))
	}
	if len(devs) > MaxDevices {
		return nil, fmt.Errorf("multigpu: at most %d devices supported, got %d", MaxDevices, len(devs))
	}
	if cfg.Policy < FirstTouch || cfg.Policy > AccessCounter {
		return nil, fmt.Errorf("multigpu: invalid migration policy %d", int(cfg.Policy))
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = DefaultThreshold
	}
	if cfg.Peer.BandwidthBytesPerSec <= 0 {
		cfg.Peer = xfer.DefaultNVLink2()
	}
	for i, d := range devs {
		if d.ID != i {
			return nil, fmt.Errorf("multigpu: device %d registered at index %d", d.ID, i)
		}
	}
	reg := obs.NewRegistry()
	m := &Manager{
		eng:               eng,
		cfg:               cfg,
		devs:              devs,
		fab:               newFabric(eng, cfg.Peer, devs),
		reg:               reg,
		remoteAccesses:    reg.Counter("p2p_remote_accesses"),
		migrations:        reg.Counter("p2p_migrations"),
		migrationsAborted: reg.Counter("p2p_migrations_aborted"),
		invalidations:     reg.Counter("p2p_invalidations"),
	}
	return m, nil
}

// Fabric returns the interconnect fabric.
func (m *Manager) Fabric() *Fabric { return m.fab }

// Registry exposes the manager's fabric/migration counters.
func (m *Manager) Registry() *obs.Registry { return m.reg }

// Owner returns the device owning block id, or -1 for host.
func (m *Manager) Owner(id mem.VABlockID) int {
	return m.blocks.Get(id).owner - 1
}

// ---- driver hook (per-device view of the residency map) ----

// driverView adapts the manager to driver.Residency for one device.
type driverView struct {
	m   *Manager
	dev int
}

// DriverHook returns device dev's driver.Residency adapter.
func (m *Manager) DriverHook(dev int) driver.Residency {
	return driverView{m: m, dev: dev}
}

// Classify implements driver.Residency.
func (v driverView) Classify(id mem.VABlockID) driver.Ownership {
	switch o := v.m.Owner(id); {
	case o < 0:
		return driver.OwnHost
	case o == v.dev:
		return driver.OwnSelf
	default:
		return driver.OwnPeer
	}
}

// RemoteMap implements driver.Residency: install remote mappings for
// every valid page of b in the calling device's view.
func (v driverView) RemoteMap(b *mem.VABlock) int {
	m, dev := v.m, v.dev
	valid := m.devs[dev].Space.ValidPagesIn(b.ID)
	b.Remote = true
	if valid > 0 {
		b.Resident.SetRange(0, valid)
	}
	m.blocks.At(b.ID).remote |= 1 << uint(dev)
	return valid
}

// Claimed implements driver.Residency: dev allocated backing for b.
func (v driverView) Claimed(b *mem.VABlock) {
	r := v.m.blocks.At(b.ID)
	if o := r.owner - 1; o >= 0 && o != v.dev {
		panic(fmt.Sprintf("multigpu: device %d claimed block %d already owned by device %d", v.dev, b.ID, o))
	}
	r.owner = v.dev + 1
	clear(r.counts)
}

// Released implements driver.Residency: dev evicted b. Ownership returns
// to the host and every peer's remote mapping is invalidated — their
// next access re-faults and re-services from host memory.
func (v driverView) Released(b *mem.VABlock) {
	m := v.m
	r := m.blocks.At(b.ID)
	for d := 0; d < len(m.devs); d++ {
		if r.remote&(1<<uint(d)) == 0 {
			continue
		}
		if blk := m.devs[d].Space.BlockIfExists(b.ID); blk != nil && blk.Remote {
			blk.Remote = false
			blk.Resident.Reset()
			blk.Dirty.Reset()
		}
		m.invalidations.Inc(1)
	}
	clear(r.counts)
	*r = residency{counts: r.counts}
}

// ---- GPU hook (remote access routing) ----

// RemoteAccess routes one remote access from device dev to b's owner
// over the fabric and returns the wait the warp observes. Under the
// AccessCounter policy it also advances the per-device counter and
// schedules a migration when the threshold is reached.
func (m *Manager) RemoteAccess(dev int, page mem.PageID, write bool, b *mem.VABlock) sim.Duration {
	r := m.blocks.At(b.ID)
	o := r.owner - 1
	if o < 0 {
		// No device owns the block: either a host-pinned zero-copy range
		// (ModeRemoteMap) or a mapping mid-invalidation. Both service from
		// host memory over this device's own link, exactly like the
		// single-GPU remote path.
		link := m.devs[dev].Link
		dir := xfer.HostToDevice
		if write {
			dir = xfer.DeviceToHost
		}
		end := link.EnqueueStream(dir, mem.PageSize)
		return end.Sub(m.eng.Now())
	}
	m.remoteAccesses.Inc(1)
	wait := m.fab.Stream(o, dev, mem.PageSize)
	if write {
		// Writes land in the owner's memory: mark the owner's copy dirty
		// so its eventual eviction writes the page back.
		ownerBlk := m.devs[o].Space.Block(b.ID)
		ownerBlk.Dirty.Set(m.devs[o].Space.Geometry().PageIndex(page))
	}
	if m.cfg.Policy == AccessCounter && o != dev {
		if r.counts == nil {
			r.counts = make([]uint32, len(m.devs))
		}
		r.counts[dev]++
		if r.counts[dev] == uint32(m.cfg.Threshold) {
			id, dst, expect := b.ID, dev, o
			m.eng.After(0, func() { m.tryMigrate(id, dst, expect) })
		}
	}
	return wait
}

// tryMigrate executes one scheduled access-counter migration of block id
// to device dst, expecting expectOwner to still own it. Stale triggers
// (ownership moved, mapping invalidated) are dropped; destination memory
// pressure aborts and re-arms the counter.
func (m *Manager) tryMigrate(id mem.VABlockID, dst, expectOwner int) {
	r := m.blocks.At(id)
	cur := r.owner - 1
	if cur != expectOwner || cur == dst {
		return
	}
	dstDev := m.devs[dst]
	dstBlk := dstDev.Space.BlockIfExists(id)
	if dstBlk == nil || !dstBlk.Remote {
		return
	}
	if _, err := dstDev.PMA.Alloc(); err != nil {
		m.migrationsAborted.Inc(1)
		if r.counts != nil {
			r.counts[dst] = 0
		}
		return
	}
	srcDev := m.devs[cur]
	srcBlk := srcDev.Space.Block(id)
	m.fab.Transfer(cur, dst, mem.Bytes(srcBlk.Resident.Count()))
	// The bookkeeping flips atomically here; the transfer's latency is
	// modeled as fabric-channel and DMA-engine occupancy on both devices,
	// which is what makes a P2P migration and a host fetch on the same
	// device visibly serialize.
	dstBlk.Remote = false
	dstBlk.Allocated = true
	dstBlk.Resident.CopyFrom(srcBlk.Resident)
	dstBlk.Dirty.CopyFrom(srcBlk.Dirty)
	dstBlk.Touches++
	dstDev.Evict.Insert(dstBlk)
	srcDev.Evict.Remove(srcBlk)
	srcDev.PMA.Free()
	srcBlk.Resident.Reset()
	srcBlk.Dirty.Reset()
	srcBlk.Allocated = false
	srcBlk.Evictions++
	r.owner = dst + 1
	r.remote &^= 1 << uint(dst)
	clear(r.counts)
	m.migrations.Inc(1)
}

// PrestageOwner records block b of device dev's view as explicitly
// staged (owner = dev) and remote-maps it on every other device, the
// naive explicit multi-GPU distribution RunExplicit models.
func (m *Manager) PrestageOwner(dev int, b *mem.VABlock) {
	m.blocks.At(b.ID).owner = dev + 1
	for d := range m.devs {
		if d == dev {
			continue
		}
		blk := m.devs[d].Space.Block(b.ID)
		driverView{m: m, dev: d}.RemoteMap(blk)
	}
}
