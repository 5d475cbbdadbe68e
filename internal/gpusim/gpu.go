package gpusim

import (
	"fmt"

	"uvmsim/internal/faultbuf"
	"uvmsim/internal/mem"
	"uvmsim/internal/obs"
	"uvmsim/internal/sim"
	"uvmsim/internal/stats"
	"uvmsim/internal/xfer"
)

// Config describes the simulated GPU.
type Config struct {
	// NumSMs is the number of streaming multiprocessors (Titan V: 80).
	NumSMs int
	// WarpSlotsPerSM bounds concurrently resident warps per SM.
	WarpSlotsPerSM int
	// FaultBufferCap is the hardware fault buffer capacity in entries.
	FaultBufferCap int
	// BlockDispatch is the scheduler cost to place one thread block.
	BlockDispatch sim.Duration
	// WarpStartSpread staggers each warp's first issue uniformly within
	// this window, modeling SM warp-scheduler serialization and µTLB walk
	// queuing. It decorrelates fault arrival order from block order — the
	// paper's "no fixed ordering due to the nondeterminism of the GPU
	// parallelism" (§IV-B).
	WarpStartSpread sim.Duration
	// AccessTime is the cost of one resident page access (issue +
	// pipeline, excluding the kernel's ComputePerAccess).
	AccessTime sim.Duration
	// FaultIssue is the GPU-side cost to record one far-fault.
	FaultIssue sim.Duration
	// FaultReadyDelay is the asynchrony between a fault entering the
	// buffer and its ready flag becoming host-visible (§III-C).
	FaultReadyDelay sim.Duration
	// ReplayWake is the latency from the driver's replay notification to
	// stalled warps retrying their access.
	ReplayWake sim.Duration
	// RemoteAccess is the extra per-access latency for pages in
	// remote-mapped ranges (a host-memory round trip over the
	// interconnect instead of a migration).
	RemoteAccess sim.Duration
	// ChunkAccesses bounds how many consecutive resident accesses one
	// simulation event executes (a pure simulator-performance knob; it
	// trades event count against residency-check granularity).
	ChunkAccesses int
	// SIMTWidth is the number of upcoming accesses that issue together as
	// one warp instruction: when the leading access faults, every
	// non-resident page in the group faults simultaneously. This is what
	// makes "access regular within a warp" produce contiguous fault runs
	// and is the source of parallel fault arrival.
	SIMTWidth int
	// MaxOutstandingPerSM bounds distinct in-flight faulted pages per SM
	// (the µTLB/MSHR limit). It throttles replay-driven fault storms: a
	// warp's leading access always gets an entry first, so stalled warps
	// cannot starve each other's forward progress by re-raising their
	// entire groups.
	MaxOutstandingPerSM int
	// JitterFrac adds seeded nondeterminism to dispatch and access
	// timing, reproducing the paper's "no fixed ordering" observation.
	JitterFrac float64
	// AccessCounters enables Volta-style memory access counters
	// (required by the access-aware eviction extension; core.NewSystem
	// turns them on whenever that policy is selected).
	AccessCounters bool
}

// DefaultConfig returns a scaled-down Titan-V-like GPU (1/10 of the SM
// array) matched to the scaled framebuffers the experiments use: the
// paper's effects require the data footprint to dwarf the in-flight warp
// footprint (NumSMs × WarpSlotsPerSM × SIMTWidth pages), as it does on
// the real machine with multi-GB problems. Use TitanV for the full-scale
// device.
func DefaultConfig() Config {
	cfg := TitanV()
	cfg.NumSMs = 8
	cfg.WarpSlotsPerSM = 8
	// Keep the in-flight-demand to buffer-capacity ratio of the full
	// machine (~40960 potential simultaneous faults vs 4096 entries):
	// overflow-and-retry is what lets density prefetching eliminate
	// faults for first-touch patterns. The capacity must stay above the
	// driver batch size (256) so unfetched entries can persist across
	// replays — the source of the duplicate faults Fig. 5 studies.
	cfg.FaultBufferCap = 768
	return cfg
}

// TitanV returns the full-scale 80-SM device of the paper's testbed.
func TitanV() Config {
	return Config{
		NumSMs:              80,
		WarpSlotsPerSM:      16,
		FaultBufferCap:      4096,
		BlockDispatch:       150 * sim.Nanosecond,
		WarpStartSpread:     25 * sim.Microsecond,
		AccessTime:          40 * sim.Nanosecond,
		FaultIssue:          200 * sim.Nanosecond,
		FaultReadyDelay:     800 * sim.Nanosecond,
		ReplayWake:          3 * sim.Microsecond,
		RemoteAccess:        1500 * sim.Nanosecond,
		ChunkAccesses:       64,
		SIMTWidth:           32,
		MaxOutstandingPerSM: 64,
		JitterFrac:          0.1,
		AccessCounters:      false,
	}
}

// Handler receives the GPU-to-host interrupt when a fault lands in the
// buffer. The UVM driver implements it.
type Handler interface {
	OnFault()
}

type warpRun struct {
	prog  WarpProgram
	pc    int
	sm    int
	block *blockRun
	// stalledAt is the time the warp blocked on a fault; -1 when running.
	stalledAt sim.Time
}

type blockRun struct {
	id        int
	warps     []*warpRun
	remaining int
}

type smState struct {
	freeSlots int
	// outstanding is the µTLB view: pages with an in-flight fault from
	// this SM. Duplicate accesses coalesce onto the existing fault. It is
	// a flat slice scanned linearly: the MSHR budget caps it at
	// MaxOutstandingPerSM (64) entries, where a scan beats map hashing
	// and the storage is reused across the whole run.
	outstanding []mem.PageID
}

// hasOutstanding reports whether page already has an in-flight fault.
func (sm *smState) hasOutstanding(page mem.PageID) bool {
	for _, p := range sm.outstanding {
		if p == page {
			return true
		}
	}
	return false
}

// Stats aggregates GPU-side measurements for one run.
type Stats struct {
	Accesses        uint64       // resident accesses executed
	FaultsRaised    uint64       // fault entries accepted into the buffer
	FaultsCoalesced uint64       // faults absorbed by µTLB coalescing
	FaultsDropped   uint64       // faults rejected by a full buffer
	FaultsThrottled uint64       // group faults deferred by the per-SM MSHR budget
	RemoteAccesses  uint64       // accesses served over the interconnect (remote-mapped ranges)
	Replays         uint64       // replay commands received
	StallTime       sim.Duration // cumulative warp stall time
	MaxStalled      int          // high-water mark of simultaneously stalled warps
}

// GPU is the simulated device.
type GPU struct {
	eng     *sim.Engine
	cfg     Config
	rng     *sim.RNG
	space   *mem.AddressSpace
	buf     *faultbuf.Buffer
	handler Handler

	sms     []*smState
	pending []*blockRun
	blocked []*warpRun

	// Run-state pools: block and warp runs recycled at block drain. A
	// multi-kernel workload (or one with more blocks than SM slots) reuses
	// the same bounded set of runs instead of allocating per launch.
	freeBlocks []*blockRun
	freeWarps  []*warpRun

	// remoteLink, when set, charges remote-mapped accesses for
	// interconnect bandwidth (pipelined, contending with DMA traffic).
	remoteLink *xfer.Link
	// remoteHook, when set, routes remote accesses through the multi-GPU
	// fabric instead of remoteLink: the hook resolves the owning device,
	// charges the peer channel, and feeds access-counter migration. It
	// returns the wait the warp observes beyond the access itself.
	remoteHook func(a Access, b *mem.VABlock) sim.Duration

	kernel      *Kernel
	doneCb      func(sim.Time)
	totalBlocks int
	doneBlocks  int
	running     bool

	stats     Stats
	stallHist stats.Histogram
	tr        *obs.Tracer // optional span tracing; nil when disabled
}

// New builds a GPU over the engine, address space, and RNG.
func New(eng *sim.Engine, cfg Config, space *mem.AddressSpace, rng *sim.RNG) (*GPU, error) {
	if cfg.NumSMs <= 0 || cfg.WarpSlotsPerSM <= 0 {
		return nil, fmt.Errorf("gpusim: NumSMs and WarpSlotsPerSM must be positive")
	}
	if cfg.ChunkAccesses <= 0 {
		return nil, fmt.Errorf("gpusim: ChunkAccesses must be positive")
	}
	if cfg.SIMTWidth <= 0 {
		return nil, fmt.Errorf("gpusim: SIMTWidth must be positive")
	}
	if cfg.MaxOutstandingPerSM <= 0 {
		return nil, fmt.Errorf("gpusim: MaxOutstandingPerSM must be positive")
	}
	buf, err := faultbuf.New(cfg.FaultBufferCap)
	if err != nil {
		return nil, err
	}
	g := &GPU{eng: eng, cfg: cfg, rng: rng, space: space, buf: buf}
	g.sms = make([]*smState, cfg.NumSMs)
	for i := range g.sms {
		g.sms[i] = &smState{
			freeSlots:   cfg.WarpSlotsPerSM,
			outstanding: make([]mem.PageID, 0, cfg.MaxOutstandingPerSM),
		}
	}
	return g, nil
}

// FaultBuffer exposes the hardware fault buffer to the driver.
func (g *GPU) FaultBuffer() *faultbuf.Buffer { return g.buf }

// SetHandler installs the driver's interrupt handler.
func (g *GPU) SetHandler(h Handler) { g.handler = h }

// SetRemoteLink routes remote-mapped access traffic over the given link
// so it contends with migration DMA for bandwidth.
func (g *GPU) SetRemoteLink(l *xfer.Link) { g.remoteLink = l }

// SetRemoteHook installs the multi-GPU remote-access router. When set it
// takes precedence over the remote link; single-GPU systems leave it nil
// and keep the byte-identical legacy path.
func (g *GPU) SetRemoteHook(h func(a Access, b *mem.VABlock) sim.Duration) { g.remoteHook = h }

// SetTracer installs (or, with nil, removes) span tracing of GPU-side
// events: warp stall windows and µTLB coalesce points.
func (g *GPU) SetTracer(t *obs.Tracer) { g.tr = t }

// Stats returns the accumulated GPU statistics.
func (g *GPU) Stats() Stats { return g.stats }

// StallHistogram returns the distribution of individual warp stall
// times (fault raise to replay wake), cumulative across runs.
func (g *GPU) StallHistogram() *stats.Histogram { return &g.stallHist }

// Running reports whether a kernel is in flight.
func (g *GPU) Running() bool { return g.running }

// BlockedWarps returns the number of currently stalled warps.
func (g *GPU) BlockedWarps() int { return len(g.blocked) }

func (g *GPU) jitter(d sim.Duration) sim.Duration {
	if g.cfg.JitterFrac <= 0 {
		return d
	}
	return g.rng.Jitter(d, g.cfg.JitterFrac)
}

// Launch starts executing k; done fires when every block retires. Only
// one kernel may run at a time.
func (g *GPU) Launch(k *Kernel, done func(at sim.Time)) error {
	if g.running {
		return fmt.Errorf("gpusim: kernel %q launched while %q is running", k.Name, g.kernel.Name)
	}
	if err := k.Validate(); err != nil {
		return err
	}
	g.kernel = k
	g.doneCb = done
	g.totalBlocks = len(k.Blocks)
	g.doneBlocks = 0
	g.running = true
	g.pending = g.pending[:0]
	for i := range k.Blocks {
		br := g.getBlockRun(i, len(k.Blocks[i].Warps))
		for _, wp := range k.Blocks[i].Warps {
			br.warps = append(br.warps, g.getWarpRun(wp, br))
		}
		g.pending = append(g.pending, br)
	}
	g.dispatch()
	return nil
}

// getBlockRun returns a reset block run, reusing a pooled one when
// available.
func (g *GPU) getBlockRun(id, warps int) *blockRun {
	var br *blockRun
	if n := len(g.freeBlocks); n > 0 {
		br = g.freeBlocks[n-1]
		g.freeBlocks = g.freeBlocks[:n-1]
		br.warps = br.warps[:0]
	} else {
		br = &blockRun{}
	}
	br.id = id
	br.remaining = warps
	return br
}

// getWarpRun returns a reset warp run for br, reusing a pooled one when
// available.
func (g *GPU) getWarpRun(prog WarpProgram, br *blockRun) *warpRun {
	var w *warpRun
	if n := len(g.freeWarps); n > 0 {
		w = g.freeWarps[n-1]
		g.freeWarps = g.freeWarps[:n-1]
	} else {
		w = &warpRun{}
	}
	*w = warpRun{prog: prog, block: br, stalledAt: -1}
	return w
}

// dispatch fills free SM slots with pending blocks in ascending block-id
// order ("the GPU scheduler will prefer lower-numbered blocks"), with
// jittered start times providing the nondeterministic interleaving.
func (g *GPU) dispatch() {
	delay := sim.Duration(0)
	for len(g.pending) > 0 {
		br := g.pending[0]
		smIdx := g.pickSM(len(br.warps))
		if smIdx < 0 {
			return // no SM can host this block now
		}
		g.pending = g.pending[1:]
		g.sms[smIdx].freeSlots -= len(br.warps)
		delay += g.jitter(g.cfg.BlockDispatch)
		for _, w := range br.warps {
			w.sm = smIdx
			w := w
			start := delay
			if g.cfg.WarpStartSpread > 0 {
				start += sim.Duration(g.rng.Uint64n(uint64(g.cfg.WarpStartSpread)))
			}
			g.eng.After(start, func() { g.step(w) })
		}
	}
}

// pickSM returns the SM with the most free slots that fits warps, or -1.
func (g *GPU) pickSM(warps int) int {
	best, bestFree := -1, 0
	for i, sm := range g.sms {
		if sm.freeSlots >= warps && sm.freeSlots > bestFree {
			best, bestFree = i, sm.freeSlots
		}
	}
	return best
}

// step runs a warp until it faults, finishes, or exhausts its event
// budget of consecutive resident accesses.
func (g *GPU) step(w *warpRun) {
	var elapsed sim.Duration
	perAccess := g.cfg.AccessTime + g.kernel.ComputePerAccess
	for budget := g.cfg.ChunkAccesses; budget > 0; budget-- {
		if w.pc >= w.prog.Len() {
			g.eng.After(elapsed, func() { g.retire(w) })
			return
		}
		a := w.prog.At(w.pc)
		if !g.space.IsResident(a.Page) {
			if elapsed > 0 {
				// Charge the time already executed, then re-examine the
				// same access (it will fault, or proceed if a concurrent
				// migration landed it).
				g.eng.After(elapsed, func() { g.step(w) })
				return
			}
			g.faultGroup(w)
			return
		}
		if debugLog != nil {
			debugLog("t=%v warp sm=%d pc=%d HIT page=%d", g.eng.Now(), w.sm, w.pc, a.Page)
		}
		elapsed += g.noteAccess(a)
		w.pc++
		elapsed += g.jitter(perAccess)
	}
	g.eng.After(elapsed, func() { g.step(w) })
}

// noteAccess records a resident access — dirty tracking for writes,
// optional access counters, remote-mapping surcharge — and returns any
// extra latency the access incurs.
func (g *GPU) noteAccess(a Access) sim.Duration {
	g.stats.Accesses++
	geom := g.space.Geometry()
	if !a.Write && !g.cfg.AccessCounters && !g.space.Special() {
		return 0 // fast path: nothing consults the block
	}
	b := g.space.Block(geom.BlockOf(a.Page))
	var extra sim.Duration
	if b.Remote {
		// The access is a host-memory round trip; no migration, no dirty
		// tracking on the GPU side (writes land in host memory).
		g.stats.RemoteAccesses++
		extra = g.jitter(g.cfg.RemoteAccess)
		if g.remoteHook != nil {
			if wait := g.remoteHook(a, b); wait > extra {
				extra = wait
			}
		} else if g.remoteLink != nil {
			dir := xfer.HostToDevice
			if a.Write {
				dir = xfer.DeviceToHost
			}
			end := g.remoteLink.EnqueueStream(dir, mem.PageSize)
			if wait := end.Sub(g.eng.Now()); wait > extra {
				extra = wait
			}
		}
	} else if a.Write {
		b.Dirty.Set(geom.PageIndex(a.Page))
	}
	if g.cfg.AccessCounters {
		b.GPUAccesses++
	}
	return extra
}

// faultGroup stalls w on its current SIMT instruction: every non-resident
// page among the next SIMTWidth accesses faults simultaneously (the 32
// threads of a warp issue together). µTLB coalescing absorbs pages this
// SM already has in flight; a full buffer drops entries (the warp still
// wakes on the next replay and re-faults).
func (g *GPU) faultGroup(w *warpRun) {
	sm := g.sms[w.sm]
	now := g.eng.Now()
	w.stalledAt = now
	g.blocked = append(g.blocked, w)
	if len(g.blocked) > g.stats.MaxStalled {
		g.stats.MaxStalled = len(g.blocked)
	}
	end := w.pc + g.cfg.SIMTWidth
	if n := w.prog.Len(); end > n {
		end = n
	}
	anyRaised := false
	anyDropped := false
	if debugLog != nil {
		a := w.prog.At(w.pc)
		debugLog("t=%v warp sm=%d pc=%d FAULT page=%d outstanding=%d", g.eng.Now(), w.sm, w.pc, a.Page, len(sm.outstanding))
	}
	for i := w.pc; i < end; i++ {
		a := w.prog.At(i)
		if g.space.IsResident(a.Page) {
			continue
		}
		if sm.hasOutstanding(a.Page) {
			// µTLB coalescing: an identical fault from this SM is in flight.
			g.stats.FaultsCoalesced++
			g.tr.Emit(obs.SpanCoalesce, now, now, 0, int64(a.Page))
			continue
		}
		if len(sm.outstanding) >= g.cfg.MaxOutstandingPerSM {
			// MSHR budget exhausted: the trailing lanes' faults are
			// deferred to a later retry of the instruction.
			g.stats.FaultsThrottled++
			break
		}
		sm.outstanding = append(sm.outstanding, a.Page)
		ready := now.Add(g.cfg.FaultIssue + g.jitter(g.cfg.FaultReadyDelay))
		if _, ok := g.buf.Put(a.Page, a.Write, w.sm, now, ready); !ok {
			g.stats.FaultsDropped++
			anyDropped = true
			// The fault left no buffer entry; clear the µTLB slot (the
			// page was just appended, so it is the last element) so the
			// retry after the recovery replay re-raises it instead of
			// coalescing onto a fault that does not exist.
			sm.outstanding = sm.outstanding[:len(sm.outstanding)-1]
			continue
		}
		g.stats.FaultsRaised++
		anyRaised = true
	}
	// Dropped faults raise the interrupt too: the driver must observe the
	// overflow so it can issue the forced replay that un-wedges the
	// stalled warp (nothing else would, if the buffer is otherwise idle).
	if (anyRaised || anyDropped) && g.handler != nil {
		g.handler.OnFault()
	}
}

// Replay is the driver's replay notification: after the wake latency all
// stalled warps retry their faulting access, and µTLB state clears so
// unsatisfied accesses generate fresh (duplicate) fault entries.
func (g *GPU) Replay() {
	g.stats.Replays++
	g.eng.After(g.cfg.ReplayWake, g.wake)
}

func (g *GPU) wake() {
	if len(g.blocked) == 0 {
		return
	}
	now := g.eng.Now()
	// The woken view aliases g.blocked's storage; that is safe because the
	// loop below only schedules events (no warp steps synchronously), so
	// nothing appends to g.blocked until wake returns.
	woken := g.blocked
	g.blocked = g.blocked[:0]
	for _, sm := range g.sms {
		sm.outstanding = sm.outstanding[:0]
	}
	if debugLog != nil {
		debugLog("t=%v WAKE %d warps", now, len(woken))
	}
	for _, w := range woken {
		if w.stalledAt >= 0 {
			stall := now.Sub(w.stalledAt)
			g.stats.StallTime += stall
			g.stallHist.Observe(stall)
			g.tr.Emit(obs.SpanStall, w.stalledAt, now, 0, int64(w.sm))
			w.stalledAt = -1
		}
		w := w
		g.eng.After(0, func() { g.step(w) })
	}
}

// retire finishes one warp; when its block drains, the SM slots free and
// more blocks dispatch.
func (g *GPU) retire(w *warpRun) {
	br := w.block
	br.remaining--
	if br.remaining > 0 {
		return
	}
	g.sms[w.sm].freeSlots += len(br.warps)
	// The block has fully drained: every warp (including w) has retired
	// and holds no pending events, so its runs recycle into the pools.
	g.freeWarps = append(g.freeWarps, br.warps...)
	g.freeBlocks = append(g.freeBlocks, br)
	g.doneBlocks++
	if g.doneBlocks == g.totalBlocks {
		g.running = false
		if g.doneCb != nil {
			g.doneCb(g.eng.Now())
		}
		return
	}
	g.dispatch()
}

// debugLog, when non-nil, receives warp-level execution events. It is a
// development hook set by tests/tools; production paths leave it nil.
var debugLog func(format string, args ...interface{})

// SetDebugLog installs (or clears) the warp-event debug hook.
func SetDebugLog(fn func(format string, args ...interface{})) { debugLog = fn }
