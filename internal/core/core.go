// Package core assembles the complete simulated UVM system: address
// space, GPU, fault buffer, interconnect, physical allocator, eviction
// and prefetch policies, and the UVM driver. It exposes the two execution
// modes the paper compares: demand-paged UVM kernels and the
// explicit-transfer baseline.
//
// A system holds K ≥ 1 devices. K=1 constructs exactly the classic
// single-GPU object graph (the multi-GPU hooks stay nil, so outputs are
// byte-identical to the pre-multi-GPU simulator). K>1 instantiates one
// driver/GPU/allocator/eviction stack per device over per-device views
// of one shared managed address space, coordinated by the
// internal/multigpu residency map and interconnect fabric.
package core

import (
	"fmt"
	"sort"
	"strings"

	"uvmsim/internal/driver"
	"uvmsim/internal/evict"
	"uvmsim/internal/gpusim"
	"uvmsim/internal/inject"
	"uvmsim/internal/mem"
	"uvmsim/internal/multigpu"
	"uvmsim/internal/obs"
	"uvmsim/internal/pma"
	"uvmsim/internal/prefetch"
	"uvmsim/internal/sim"
	"uvmsim/internal/stats"
	"uvmsim/internal/thrash"
	"uvmsim/internal/trace"
	"uvmsim/internal/xfer"
)

// deviceSeedStride decorrelates per-device RNG streams (the golden-ratio
// increment, the same stream-splitting constant sim.RNG uses). Device 0
// keeps the configured seed, so K=1 consumes the exact classic stream.
const deviceSeedStride = 0x9e3779b97f4a7c15

// Config describes a complete system. Zero-valid fields fall back to the
// calibrated defaults in DefaultConfig.
type Config struct {
	// Seed drives every random decision in the simulation.
	Seed uint64
	// GPUs is the device count K (0 means 1). Every device gets its own
	// framebuffer of GPUMemoryBytes, driver instance, fault buffer, and
	// host link; K>1 adds the shared residency map and peer fabric.
	GPUs int
	// Migration selects the multi-GPU page-placement policy; ignored at
	// K=1. The zero value is multigpu.FirstTouch.
	Migration multigpu.Policy
	// MigrationThreshold is the access-counter migration threshold
	// (0 selects multigpu.DefaultThreshold).
	MigrationThreshold int
	// Peer describes the peer↔peer interconnect channels; the zero value
	// selects xfer.DefaultNVLink2.
	Peer xfer.LinkConfig
	// GPUMemoryBytes is the usable framebuffer size per device. The
	// paper's Titan V has 12 GB; experiments typically use a scaled-down
	// value with proportionally scaled problem sizes.
	GPUMemoryBytes int64
	// VABlockSize is the allocation/eviction granularity (default 2 MB;
	// the §VI-B flexible-granularity extension changes it).
	VABlockSize int64
	// PrefetchPolicy names the prefetcher (see prefetch.New).
	PrefetchPolicy string
	// EvictPolicy names the eviction policy (see evict.New).
	EvictPolicy string
	// KernelLaunch is the host-side launch overhead.
	KernelLaunch sim.Duration
	// TraceCapacity bounds recorded trace events; 0 disables tracing and
	// a negative value records unbounded.
	TraceCapacity int
	// Inject configures the deterministic fault-injection layer; the
	// zero value (Enabled=false) wires no injector.
	Inject inject.Config
	// InvariantStride is the invariant checker's deep-check period in
	// events; 0 selects inject.DefaultStride. The checker itself is
	// always on.
	InvariantStride int
	// Obs selects deep runtime instrumentation (span tracing into a
	// collector cell, fault-lifecycle tracking). The zero value disables
	// it all; the hot path then takes only nil checks. At K>1 each device
	// gets its own cell labeled "<label> [gpu<d>]".
	Obs obs.Options
	// Cancel, when non-nil, is polled by the engine's dispatch loop so a
	// host-side signal or context can stop the run between events.
	Cancel *sim.Cancel
	// Budget bounds the run in simulated time, event count, and forward
	// progress; the zero value imposes no bounds.
	Budget sim.Budget

	GPU    gpusim.Config
	Driver driver.Config
	Link   xfer.LinkConfig
	PMA    pma.Config // CapacityBytes/ChunkBytes are overridden from above
}

// DefaultConfig returns the calibrated Titan-V-like system with the given
// framebuffer size.
func DefaultConfig(gpuMemBytes int64) Config {
	return Config{
		Seed:           1,
		GPUs:           1,
		GPUMemoryBytes: gpuMemBytes,
		VABlockSize:    mem.DefaultVABlockSize,
		PrefetchPolicy: "density",
		EvictPolicy:    "lru",
		KernelLaunch:   12 * sim.Microsecond,
		TraceCapacity:  0,
		GPU:            gpusim.DefaultConfig(),
		Driver:         driver.DefaultConfig(),
		Link:           xfer.DefaultPCIe3x16(),
		Peer:           xfer.DefaultNVLink2(),
		PMA:            pma.DefaultConfig(gpuMemBytes),
	}
}

// deviceSys is one device's complete component stack.
type deviceSys struct {
	rng     *sim.RNG
	space   *mem.AddressSpace
	pm      *pma.PMA
	link    *xfer.Link
	gpu     *gpusim.GPU
	drv     *driver.Driver
	evictor evict.Policy
	pf      prefetch.Prefetcher
	cell    *obs.Cell      // nil when span tracing is disabled
	life    *obs.Lifecycle // nil when lifecycle tracking is disabled
	inv     *inject.Invariants
}

// System is an assembled simulated machine. Create one per experiment
// cell; allocations and residency persist across kernel launches on the
// same system (so warm reuse and multi-kernel applications work).
type System struct {
	cfg  Config
	eng  *sim.Engine
	rec  *trace.Recorder  // shared across devices; nil-safe
	inj  *inject.Injector // nil when injection is disabled
	devs []*deviceSys
	mgr  *multigpu.Manager    // nil at K=1
	minv *multigpu.Invariants // nil at K=1
}

// NewSystem validates cfg and assembles the system.
func NewSystem(cfg Config) (*System, error) {
	if cfg.GPUMemoryBytes <= 0 {
		return nil, fmt.Errorf("core: GPUMemoryBytes %d must be positive", cfg.GPUMemoryBytes)
	}
	if cfg.GPUs == 0 {
		cfg.GPUs = 1
	}
	if cfg.GPUs < 1 {
		return nil, fmt.Errorf("core: GPUs %d must be at least 1", cfg.GPUs)
	}
	if cfg.GPUs > multigpu.MaxDevices {
		return nil, fmt.Errorf("core: GPUs %d exceeds the supported maximum %d", cfg.GPUs, multigpu.MaxDevices)
	}
	if cfg.VABlockSize == 0 {
		cfg.VABlockSize = mem.DefaultVABlockSize
	}
	if strings.TrimSuffix(cfg.EvictPolicy, "+thrash") == "access-aware" {
		cfg.GPU.AccessCounters = true // the policy ranks victims by these counters
	}
	geom, err := mem.NewGeometry(cfg.VABlockSize)
	if err != nil {
		return nil, err
	}
	K := cfg.GPUs
	eng := sim.NewEngine()
	if cfg.Cancel != nil {
		eng.SetCancel(cfg.Cancel)
	}
	if cfg.Budget.Active() {
		eng.SetBudget(cfg.Budget)
	}
	var rec *trace.Recorder
	switch {
	case cfg.TraceCapacity < 0:
		rec = trace.New()
	case cfg.TraceCapacity > 0:
		rec = trace.NewBounded(cfg.TraceCapacity)
	}
	var inj *inject.Injector
	if cfg.Inject.Enabled {
		// The injector runs on its own RNG stream so injected and
		// baseline runs of the same seed execute identical workloads.
		inj, err = inject.New(cfg.Inject)
		if err != nil {
			return nil, err
		}
	}

	cfg.PMA.CapacityBytes = cfg.GPUMemoryBytes
	cfg.PMA.ChunkBytes = cfg.VABlockSize
	devs := make([]*deviceSys, K)
	tracers := make([]*obs.Tracer, K)
	for d := 0; d < K; d++ {
		rng := sim.NewRNG(cfg.Seed + uint64(d)*deviceSeedStride)
		space := mem.NewAddressSpace(geom)
		if K > 1 {
			// Peer-owned blocks gain remote mappings dynamically, so the
			// GPU's resident-access fast path must always consult the block.
			space.MarkSpecial()
		}
		pm, err := pma.New(cfg.PMA, rng)
		if err != nil {
			return nil, err
		}
		link, err := xfer.NewLink(eng, cfg.Link)
		if err != nil {
			return nil, err
		}
		gpu, err := gpusim.New(eng, cfg.GPU, space, rng)
		if err != nil {
			return nil, err
		}
		ev, err := buildEvictPolicy(cfg.EvictPolicy, rng)
		if err != nil {
			return nil, err
		}
		pf, err := prefetch.New(cfg.PrefetchPolicy)
		if err != nil {
			return nil, err
		}
		if inj != nil {
			gpu.FaultBuffer().SetPerturber(inj)
			link.SetFaultHook(inj.DMAFault)
		}
		dv := &deviceSys{rng: rng, space: space, pm: pm, link: link, gpu: gpu, evictor: ev, pf: pf}
		if cfg.Obs.Collector != nil {
			label := cfg.Obs.Label
			if K > 1 {
				label = fmt.Sprintf("%s [gpu%d]", label, d)
			}
			dv.cell = cfg.Obs.Collector.NewCell(label)
			tracers[d] = obs.NewTracer(dv.cell.Sink)
			gpu.SetTracer(tracers[d])
			link.SetTracer(tracers[d])
		}
		if cfg.Obs.Lifecycle {
			dv.life = obs.NewLifecycle()
			gpu.FaultBuffer().SetLifecycle(dv.life)
		}
		devs[d] = dv
	}

	var mgr *multigpu.Manager
	if K > 1 {
		mdevs := make([]*multigpu.Device, K)
		for d, dv := range devs {
			mdevs[d] = &multigpu.Device{
				ID: d, Space: dv.space, PMA: dv.pm, Evict: dv.evictor,
				Link: dv.link, Tracer: tracers[d],
			}
		}
		mgr, err = multigpu.NewManager(eng, multigpu.Config{
			Policy:    cfg.Migration,
			Threshold: cfg.MigrationThreshold,
			Peer:      cfg.Peer,
		}, mdevs)
		if err != nil {
			return nil, err
		}
	}

	for d, dv := range devs {
		deps := driver.Deps{
			Engine:   eng,
			Space:    dv.space,
			Buffer:   dv.gpu.FaultBuffer(),
			PMA:      dv.pm,
			Link:     dv.link,
			Evict:    dv.evictor,
			Prefetch: dv.pf,
			Replayer: dv.gpu,
			Trace:    rec,
			Obs:      tracers[d],
			Life:     dv.life,
		}
		if inj != nil {
			deps.Inject = inj
		}
		if mgr != nil {
			deps.Residency = mgr.DriverHook(d)
		}
		drv, err := driver.New(cfg.Driver, deps)
		if err != nil {
			return nil, err
		}
		if dv.cell != nil {
			dv.cell.Bind(drv.Metrics(), dv.life)
		}
		dv.gpu.SetHandler(drv)
		dv.gpu.SetRemoteLink(dv.link)
		if mgr != nil {
			dev := d
			dv.gpu.SetRemoteHook(func(a gpusim.Access, b *mem.VABlock) sim.Duration {
				return mgr.RemoteAccess(dev, a.Page, a.Write, b)
			})
		}
		dv.drv = drv
		dv.inv = inject.NewInvariants(eng, dv.gpu.FaultBuffer(), dv.space, dv.pm, cfg.Seed, cfg.InvariantStride)
	}

	s := &System{cfg: cfg, eng: eng, rec: rec, inj: inj, devs: devs, mgr: mgr}
	if K == 1 {
		devs[0].inv.Attach()
	} else {
		// The engine has a single observer slot: compose every device's
		// conservation checker with the cross-device residency audit.
		s.minv = multigpu.NewInvariants(mgr, cfg.InvariantStride)
		eng.SetObserver(func(now sim.Time) {
			for _, dv := range devs {
				dv.inv.Observe(now)
			}
			s.minv.Observe(now)
		})
	}
	return s, nil
}

// buildEvictPolicy resolves an eviction policy name, supporting a
// "+thrash" suffix that wraps the base policy with the thrashing
// detector (e.g. "lru+thrash").
func buildEvictPolicy(name string, rng *sim.RNG) (evict.Policy, error) {
	base, wrap := name, false
	if strings.HasSuffix(name, "+thrash") {
		base, wrap = strings.TrimSuffix(name, "+thrash"), true
	}
	ev, err := evict.New(base, rng)
	if err != nil {
		return nil, err
	}
	if !wrap {
		return ev, nil
	}
	return thrash.New(thrash.DefaultConfig(), ev)
}

// ValidatePolicies resolves the policy names and multi-GPU knobs in cfg
// without assembling a system. Sweep front-ends use it to reject a
// misspelled policy before any simulation has run, rather than failing
// mid-sweep when the bad combination is finally reached.
func ValidatePolicies(cfg Config) error {
	if _, err := buildEvictPolicy(cfg.EvictPolicy, sim.NewRNG(0)); err != nil {
		return err
	}
	if _, err := prefetch.New(cfg.PrefetchPolicy); err != nil {
		return err
	}
	if cfg.GPUs < 0 || cfg.GPUs > multigpu.MaxDevices {
		return fmt.Errorf("core: GPUs %d out of range [1, %d]", cfg.GPUs, multigpu.MaxDevices)
	}
	if cfg.Migration < multigpu.FirstTouch || cfg.Migration > multigpu.AccessCounter {
		return fmt.Errorf("core: invalid migration policy %d", int(cfg.Migration))
	}
	return nil
}

// Config returns the system's (normalized) configuration.
func (s *System) Config() Config { return s.cfg }

// GPUs returns the device count K.
func (s *System) GPUs() int { return len(s.devs) }

// Space returns device 0's address-space view for inspection. At K=1 it
// is the address space.
func (s *System) Space() *mem.AddressSpace { return s.devs[0].space }

// SpaceOf returns device d's address-space view.
func (s *System) SpaceOf(d int) *mem.AddressSpace { return s.devs[d].space }

// Engine returns the simulation engine (advanced use).
func (s *System) Engine() *sim.Engine { return s.eng }

// Trace returns the trace recorder (nil when tracing is disabled).
func (s *System) Trace() *trace.Recorder { return s.rec }

// Driver exposes device 0's driver for white-box inspection.
func (s *System) Driver() *driver.Driver { return s.devs[0].drv }

// DriverOf exposes device d's driver.
func (s *System) DriverOf(d int) *driver.Driver { return s.devs[d].drv }

// PMA exposes device 0's physical allocator for inspection.
func (s *System) PMA() *pma.PMA { return s.devs[0].pm }

// GPU exposes device 0 for inspection.
func (s *System) GPU() *gpusim.GPU { return s.devs[0].gpu }

// GPUOf exposes device d.
func (s *System) GPUOf(d int) *gpusim.GPU { return s.devs[d].gpu }

// Injector exposes the fault-injection layer (nil when disabled).
func (s *System) Injector() *inject.Injector { return s.inj }

// MultiGPU exposes the shared residency map and fabric (nil at K=1).
func (s *System) MultiGPU() *multigpu.Manager { return s.mgr }

// ObsCell exposes device 0's observability capture (nil when span
// tracing is disabled).
func (s *System) ObsCell() *obs.Cell { return s.devs[0].cell }

// ObsCells exposes every device's observability capture in device order
// (empty when span tracing is disabled).
func (s *System) ObsCells() []*obs.Cell {
	var cells []*obs.Cell
	for _, dv := range s.devs {
		if dv.cell != nil {
			cells = append(cells, dv.cell)
		}
	}
	return cells
}

// Lifecycle exposes device 0's fault-lifecycle collector (nil when
// disabled).
func (s *System) Lifecycle() *obs.Lifecycle { return s.devs[0].drv.Lifecycle() }

// Metrics exposes the driver metrics registry. At K=1 this is device 0's
// live registry; at K>1 it is a merged snapshot summing every device's
// counters plus the residency manager's fabric/migration counters.
func (s *System) Metrics() *obs.Registry {
	if len(s.devs) == 1 {
		return s.devs[0].drv.Metrics()
	}
	reg := obs.NewRegistry()
	for _, dv := range s.devs {
		reg.Absorb("", dv.drv.Metrics().Samples())
	}
	reg.Absorb("", s.mgr.Registry().Samples())
	return reg
}

// Invariants exposes device 0's runtime invariant checker.
func (s *System) Invariants() *inject.Invariants { return s.devs[0].inv }

// MallocManaged reserves a managed range (the cudaMallocManaged
// analogue). Data starts on the host; pages migrate on demand.
func (s *System) MallocManaged(size int64, label string) (*mem.Range, error) {
	return s.MallocManagedMode(size, label, mem.ModeMigrate)
}

// MallocManagedMode reserves a managed range with one of UVM's three
// access behaviors (§III-A): paged migration, remote mapping, or
// read-only duplication. At K>1 the range is mirrored into every
// device's view — the views share one virtual layout, so PageIDs and
// VABlockIDs are global.
func (s *System) MallocManagedMode(size int64, label string, mode mem.AccessMode) (*mem.Range, error) {
	r, err := s.devs[0].space.AllocMode(size, label, mode)
	if err != nil {
		return nil, err
	}
	for _, dv := range s.devs[1:] {
		if _, err := dv.space.AllocMode(size, label, mode); err != nil {
			return nil, fmt.Errorf("core: mirroring range %q: %w", label, err)
		}
	}
	return r, nil
}

// RunResult reports one kernel execution, aggregated across devices.
type RunResult struct {
	// KernelTime spans launch to retirement of the last block on any
	// device.
	KernelTime sim.Duration
	// TotalTime additionally includes explicit staging transfers (equal
	// to KernelTime for UVM runs).
	TotalTime sim.Duration
	// Breakdown is the driver-phase time charged during this run, summed
	// across devices.
	Breakdown stats.Breakdown
	// Counters are the driver event-counter deltas for this run, summed
	// across devices.
	Counters *stats.CounterSet
	// GPU is the GPU-side statistics delta for this run, summed across
	// devices (MaxStalled is the per-device maximum).
	GPU gpusim.Stats
	// BytesH2D and BytesD2H are host-interconnect byte deltas summed
	// across devices; BytesP2P is the peer-fabric byte delta (0 at K=1).
	BytesH2D, BytesD2H, BytesP2P int64
	// Faults is the number of fault entries the drivers fetched.
	Faults uint64
	// Evictions is the number of VABlock evictions.
	Evictions uint64
}

// snapshot captures cumulative state so runs can report deltas.
type snapshot struct {
	bd       stats.Breakdown
	counters map[string]uint64
	gpu      gpusim.Stats
	h2d, d2h int64
	p2p      int64
}

func (s *System) snap() snapshot {
	sn := snapshot{counters: make(map[string]uint64)}
	for _, dv := range s.devs {
		bd := dv.drv.Breakdown()
		for _, p := range stats.Phases() {
			sn.bd.Add(p, bd.Get(p))
		}
		g := dv.gpu.Stats()
		sn.gpu.Accesses += g.Accesses
		sn.gpu.FaultsRaised += g.FaultsRaised
		sn.gpu.FaultsCoalesced += g.FaultsCoalesced
		sn.gpu.FaultsDropped += g.FaultsDropped
		sn.gpu.FaultsThrottled += g.FaultsThrottled
		sn.gpu.RemoteAccesses += g.RemoteAccesses
		sn.gpu.Replays += g.Replays
		sn.gpu.StallTime += g.StallTime
		if g.MaxStalled > sn.gpu.MaxStalled {
			sn.gpu.MaxStalled = g.MaxStalled
		}
		sn.h2d += dv.link.BytesMoved(xfer.HostToDevice)
		sn.d2h += dv.link.BytesMoved(xfer.DeviceToHost)
		for _, c := range dv.drv.Counters().Sorted() {
			sn.counters[c.Name] += c.Value
		}
	}
	if s.mgr != nil {
		sn.p2p = s.mgr.Fabric().TotalBytes()
		for _, sample := range s.mgr.Registry().Samples() {
			if sample.Kind == obs.KindCounter {
				sn.counters[sample.Name] += sample.Value
			}
		}
	}
	return sn
}

func (s *System) delta(before snapshot, kernelTime, totalTime sim.Duration) *RunResult {
	after := s.snap()
	res := &RunResult{
		KernelTime: kernelTime,
		TotalTime:  totalTime,
		Counters:   stats.NewCounterSet(),
		BytesH2D:   after.h2d - before.h2d,
		BytesD2H:   after.d2h - before.d2h,
		BytesP2P:   after.p2p - before.p2p,
	}
	for _, p := range stats.Phases() {
		res.Breakdown.Add(p, after.bd.Get(p)-before.bd.Get(p))
	}
	names := make([]string, 0, len(after.counters))
	for name := range after.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res.Counters.Inc(name, after.counters[name]-before.counters[name])
	}
	res.GPU = gpusim.Stats{
		Accesses:        after.gpu.Accesses - before.gpu.Accesses,
		FaultsRaised:    after.gpu.FaultsRaised - before.gpu.FaultsRaised,
		FaultsCoalesced: after.gpu.FaultsCoalesced - before.gpu.FaultsCoalesced,
		FaultsDropped:   after.gpu.FaultsDropped - before.gpu.FaultsDropped,
		FaultsThrottled: after.gpu.FaultsThrottled - before.gpu.FaultsThrottled,
		RemoteAccesses:  after.gpu.RemoteAccesses - before.gpu.RemoteAccesses,
		Replays:         after.gpu.Replays - before.gpu.Replays,
		StallTime:       after.gpu.StallTime - before.gpu.StallTime,
		MaxStalled:      after.gpu.MaxStalled,
	}
	res.Faults = res.Counters.Get("faults_fetched")
	res.Evictions = res.Counters.Get("evictions")
	return res
}

// stopErr converts a tripped engine governor into the run's error,
// stamping a cancel point-span into every capture so a truncated trace
// carries its own explanation. Nil when no governor tripped.
func (s *System) stopErr() error {
	reason := s.eng.StopReason()
	if reason == sim.StopNone {
		return nil
	}
	now := s.eng.Now()
	for _, dv := range s.devs {
		if dv.cell != nil {
			dv.cell.Sink.Span(obs.Span{Kind: obs.SpanCancel, Start: now, End: now, Arg: int64(reason)})
		}
	}
	return &sim.StopError{Reason: reason, Now: now, Executed: s.eng.Executed()}
}

// splitKernel partitions k's thread blocks across devices in contiguous
// slices (the standard multi-GPU domain decomposition). K=1 returns the
// kernel itself, untouched. Partitions that would be empty (more devices
// than blocks) are nil.
func (s *System) splitKernel(k *gpusim.Kernel) []*gpusim.Kernel {
	K := len(s.devs)
	if K == 1 {
		return []*gpusim.Kernel{k}
	}
	parts := make([]*gpusim.Kernel, K)
	n := len(k.Blocks)
	for d := 0; d < K; d++ {
		lo, hi := d*n/K, (d+1)*n/K
		if lo == hi {
			continue
		}
		parts[d] = &gpusim.Kernel{
			Name:             fmt.Sprintf("%s.gpu%d", k.Name, d),
			Blocks:           k.Blocks[lo:hi],
			ComputePerAccess: k.ComputePerAccess,
		}
	}
	return parts
}

// finalChecks runs every device's end-of-run invariant audit plus (K>1)
// the cross-device residency audit.
func (s *System) finalChecks() error {
	for d, dv := range s.devs {
		if err := dv.inv.Final(); err != nil {
			if len(s.devs) > 1 {
				return fmt.Errorf("gpu%d: %w", d, err)
			}
			return err
		}
		if err := dv.drv.Lifecycle().CheckConservation(); err != nil {
			if len(s.devs) > 1 {
				return fmt.Errorf("gpu%d: %w", d, err)
			}
			return err
		}
	}
	if s.minv != nil {
		if err := runRecovered(func() { s.minv.Final(s.eng.Now()) }); err != nil {
			return err
		}
	}
	return nil
}

// runRecovered converts an *inject.Violation panic into an error so
// final multi-GPU audits report like per-device ones; other panics
// propagate.
func runRecovered(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if v, ok := r.(*inject.Violation); ok {
				err = v
				return
			}
			panic(r)
		}
	}()
	fn()
	return nil
}

// RunUVM executes k under demand paging and returns its measurements.
// At K>1 the kernel's thread blocks are partitioned contiguously across
// devices and launched simultaneously; the run completes when the last
// device retires its partition.
func (s *System) RunUVM(k *gpusim.Kernel) (*RunResult, error) {
	before := s.snap()
	start := s.eng.Now().Add(s.cfg.KernelLaunch)
	parts := s.splitKernel(k)
	var doneAt sim.Time = -1
	remaining := 0
	for _, p := range parts {
		if p != nil {
			remaining++
		}
	}
	s.eng.At(start, func() {
		for d, p := range parts {
			if p == nil {
				continue
			}
			if err := s.devs[d].gpu.Launch(p, func(at sim.Time) {
				remaining--
				if at > doneAt {
					doneAt = at
				}
			}); err != nil {
				panic(err) // single-threaded: Launch cannot race; config errors are programmer bugs
			}
		}
	})
	s.eng.Run()
	if err := s.stopErr(); err != nil {
		return nil, fmt.Errorf("core: kernel %q: %w", k.Name, err)
	}
	if remaining > 0 || doneAt < 0 {
		if len(s.devs) == 1 {
			return nil, fmt.Errorf("core: kernel %q deadlocked: %d warps blocked, %d buffered faults, driver idle=%v",
				k.Name, s.devs[0].gpu.BlockedWarps(), s.devs[0].gpu.FaultBuffer().Len(), s.devs[0].drv.Idle())
		}
		var parts []string
		for d, dv := range s.devs {
			parts = append(parts, fmt.Sprintf("gpu%d: %d warps blocked, %d buffered, idle=%v",
				d, dv.gpu.BlockedWarps(), dv.gpu.FaultBuffer().Len(), dv.drv.Idle()))
		}
		return nil, fmt.Errorf("core: kernel %q deadlocked on %d of %d devices [%s]",
			k.Name, remaining, len(s.devs), strings.Join(parts, "; "))
	}
	if err := s.finalChecks(); err != nil {
		return nil, fmt.Errorf("core: kernel %q: %w", k.Name, err)
	}
	elapsed := doneAt.Sub(start) + s.cfg.KernelLaunch
	return s.delta(before, elapsed, elapsed), nil
}

// Prestage explicitly transfers every allocated range to the GPU and maps
// it (the cudaMemcpy baseline). It fails when the data does not fit. At
// K>1 everything stages to device 0 (the naive explicit multi-GPU
// distribution) and peers receive remote mappings — remote-access
// traffic then shows exactly why explicit multi-GPU code wants manual
// domain decomposition.
func (s *System) Prestage() (sim.Duration, error) {
	dev0 := s.devs[0]
	geom := dev0.space.Geometry()
	needBlocks := 0
	for _, r := range dev0.space.Ranges() {
		if r.Mode != mem.ModeMigrate {
			continue // remote/duplicated data does not consume GPU memory here
		}
		needBlocks += r.Blocks
	}
	if int64(needBlocks)*s.cfg.VABlockSize > s.cfg.GPUMemoryBytes {
		return 0, fmt.Errorf("core: explicit prestage needs %d blocks but GPU holds %d",
			needBlocks, s.cfg.GPUMemoryBytes/s.cfg.VABlockSize)
	}
	start := s.eng.Now()
	var end sim.Time = start
	for _, r := range dev0.space.Ranges() {
		if r.Mode == mem.ModeRemoteMap {
			continue // already mapped; nothing to stage
		}
		done := dev0.link.Enqueue(xfer.HostToDevice, mem.Bytes(r.Pages), nil)
		if done > end {
			end = done
		}
		for b := 0; b < r.Blocks; b++ {
			id := geom.BlockOf(r.StartPage) + mem.VABlockID(b)
			blk := dev0.space.Block(id)
			if blk.Allocated {
				continue
			}
			if _, err := dev0.pm.Alloc(); err != nil {
				return 0, fmt.Errorf("core: prestage allocation: %w", err)
			}
			blk.Allocated = true
			valid := dev0.space.ValidPagesIn(id)
			for p := 0; p < valid; p++ {
				blk.Resident.Set(p)
			}
			if s.mgr != nil {
				s.mgr.PrestageOwner(0, blk)
			}
		}
	}
	s.eng.RunUntil(end)
	if err := s.stopErr(); err != nil {
		return 0, fmt.Errorf("core: prestage: %w", err)
	}
	return end.Sub(start), nil
}

// RunExplicit executes k with all data prestaged: the paper's explicit
// direct-transfer baseline. TotalTime includes the transfer.
func (s *System) RunExplicit(k *gpusim.Kernel) (*RunResult, error) {
	before := s.snap()
	xferTime, err := s.Prestage()
	if err != nil {
		return nil, err
	}
	start := s.eng.Now().Add(s.cfg.KernelLaunch)
	parts := s.splitKernel(k)
	var doneAt sim.Time = -1
	remaining := 0
	for _, p := range parts {
		if p != nil {
			remaining++
		}
	}
	s.eng.At(start, func() {
		for d, p := range parts {
			if p == nil {
				continue
			}
			if err := s.devs[d].gpu.Launch(p, func(at sim.Time) {
				remaining--
				if at > doneAt {
					doneAt = at
				}
			}); err != nil {
				panic(err)
			}
		}
	})
	s.eng.Run()
	if err := s.stopErr(); err != nil {
		return nil, fmt.Errorf("core: explicit kernel %q: %w", k.Name, err)
	}
	if remaining > 0 || doneAt < 0 {
		return nil, fmt.Errorf("core: explicit kernel %q did not finish (faulted on unstaged page?)", k.Name)
	}
	kernel := doneAt.Sub(start) + s.cfg.KernelLaunch
	return s.delta(before, kernel, kernel+xferTime), nil
}

// ResidentPages reports current GPU residency summed across devices
// (locally backed pages only; remote mappings are not residency).
func (s *System) ResidentPages() int {
	if len(s.devs) == 1 {
		return s.devs[0].space.ResidentPages()
	}
	total := 0
	for d, dv := range s.devs {
		dv.space.ForEachBlock(func(b *mem.VABlock) {
			if b.Allocated && s.mgr.Owner(b.ID) == d {
				total += b.Resident.Count()
			}
		})
	}
	return total
}

// HostRead simulates the CPU consuming a range after kernel completion
// (e.g. validating results): GPU-resident pages of the range migrate
// back to the host and their blocks are released, mirroring the
// CPU-fault path of UVM. At K>1 each block migrates home from whichever
// device owns it and peers' remote mappings are invalidated. It returns
// the simulated time consumed. No kernel may be running.
func (s *System) HostRead(r *mem.Range) (sim.Duration, error) {
	for _, dv := range s.devs {
		if dv.gpu.Running() {
			return 0, fmt.Errorf("core: HostRead(%q) while a kernel is running", r.Label)
		}
	}
	geom := s.devs[0].space.Geometry()
	start := s.eng.Now()
	var end sim.Time = start
	firstBlock := geom.BlockOf(r.StartPage)
	for b := 0; b < r.Blocks; b++ {
		id := firstBlock + mem.VABlockID(b)
		dv := s.devs[0]
		owner := 0
		if s.mgr != nil {
			owner = s.mgr.Owner(id)
			if owner < 0 {
				continue
			}
			dv = s.devs[owner]
		}
		blk := dv.space.BlockIfExists(id)
		if blk == nil || blk.Remote || !blk.Allocated {
			continue
		}
		// Migrate the resident pages home; read-duplicated clean pages
		// already have a valid host copy and need no transfer.
		pages := blk.Resident.Count()
		if blk.ReadDup {
			pages = blk.Dirty.Count()
		}
		if pages > 0 {
			done := dv.link.Enqueue(xfer.DeviceToHost, mem.Bytes(pages), nil)
			if done > end {
				end = done
			}
		}
		blk.Resident.Reset()
		blk.Dirty.Reset()
		blk.Allocated = false
		dv.pm.Free()
		// The block leaves GPU memory outside the fault path; it must
		// also leave the eviction policy's working set.
		dv.evictor.Remove(blk)
		if s.mgr != nil {
			// Ownership returns to the host and peer mappings invalidate,
			// exactly as if the owner's driver had evicted the block.
			s.mgr.DriverHook(owner).Released(blk)
		}
	}
	s.eng.RunUntil(end)
	if err := s.stopErr(); err != nil {
		return 0, fmt.Errorf("core: HostRead(%q): %w", r.Label, err)
	}
	return end.Sub(start), nil
}
