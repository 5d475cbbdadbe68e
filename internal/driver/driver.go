package driver

import (
	"fmt"
	"slices"

	"uvmsim/internal/evict"
	"uvmsim/internal/faultbuf"
	"uvmsim/internal/mem"
	"uvmsim/internal/obs"
	"uvmsim/internal/pma"
	"uvmsim/internal/prefetch"
	"uvmsim/internal/sim"
	"uvmsim/internal/stats"
	"uvmsim/internal/trace"
	"uvmsim/internal/tree"
	"uvmsim/internal/xfer"
)

// Replayer is the GPU-side replay command interface.
type Replayer interface {
	Replay()
}

// FaultInjector is the driver-visible surface of the fault-injection
// layer (internal/inject). DMA failures and fault-buffer perturbations
// are injected below the driver via xfer.Link and faultbuf.Buffer hooks;
// this interface covers the perturbations the driver applies itself.
type FaultInjector interface {
	// EvictStall returns extra simulated latency injected into one
	// eviction (lock contention, RM call stalls); zero means none.
	EvictStall() sim.Duration
}

// Driver is the simulated UVM kernel module. It is driven entirely by
// fault interrupts (OnFault) and schedules its pipeline as a chain of
// simulation events so that GPU execution, DMA, and driver work interleave
// on the shared clock exactly as they do on real hardware.
type Driver struct {
	eng      *sim.Engine
	cfg      Config
	space    *mem.AddressSpace
	buf      *faultbuf.Buffer
	alloc    *pma.PMA
	link     *xfer.Link
	policy   evict.Policy
	pf       prefetch.Prefetcher
	replayer Replayer

	breakdown stats.Breakdown
	m         metrics
	rec       *trace.Recorder // optional; nil-safe
	inj       FaultInjector   // optional; nil-safe
	tr        *obs.Tracer     // optional span tracing; nil-safe
	life      *obs.Lifecycle  // optional per-fault tracking; nil-safe
	res       Residency       // optional multi-GPU residency map; nil at K=1

	// Batch envelope state for span tracing: one SpanBatch covers first
	// entry fetched to the moment the next fetch (or pass end) begins.
	batchSeq    uint64
	batchStart  sim.Time
	batchFaults int
	batchOpen   bool

	idle bool
	// servicedSinceReplay supports the Once policy: replay fires only
	// when the buffer drains after servicing work.
	servicedSinceReplay int
	// dropsReplayed is the buffer drop count already covered by a replay.
	// Dropped faults leave stalled warps with no buffer entry; when new
	// drops outrun the last replay, endPass must force one or those warps
	// would never re-fault (graceful buffer-full degradation).
	dropsReplayed uint64

	// Batch-scoped scratch arena (DESIGN.md §12). All of it is owned by
	// exactly one in-flight batch at a time: the pipeline is a strictly
	// serial event chain (fetch → preprocess → service… → batchEnd →
	// next fetch), so the arena is reclaimed at the next preprocess,
	// after the previous batch has fully retired. Reuse never crosses a
	// batch boundary mid-flight and never leaks state: every field is
	// reset before use.
	acc      []faultbuf.Entry    // fetch accumulation, cap BatchSize
	bins     []*bin              // current batch's bins, sorted by block
	binIndex mem.BlockTable[int] // block -> index into bins + 1; 0 = no bin
	binFree  []*bin              // recycled bins with retained bitmaps/maps
}

// Deps bundles the driver's collaborators.
type Deps struct {
	Engine   *sim.Engine
	Space    *mem.AddressSpace
	Buffer   *faultbuf.Buffer
	PMA      *pma.PMA
	Link     *xfer.Link
	Evict    evict.Policy
	Prefetch prefetch.Prefetcher
	Replayer Replayer
	Trace    *trace.Recorder // optional
	Inject   FaultInjector   // optional
	Obs      *obs.Tracer     // optional span tracing
	Life     *obs.Lifecycle  // optional fault-lifecycle tracking
	// Residency is the shared multi-GPU residency map; nil for the
	// single-GPU model.
	Residency Residency
}

// New validates and assembles a driver.
func New(cfg Config, d Deps) (*Driver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if d.Engine == nil || d.Space == nil || d.Buffer == nil || d.PMA == nil ||
		d.Link == nil || d.Evict == nil || d.Prefetch == nil || d.Replayer == nil {
		return nil, fmt.Errorf("driver: missing dependency in %+v", d)
	}
	drv := &Driver{
		eng:      d.Engine,
		cfg:      cfg,
		space:    d.Space,
		buf:      d.Buffer,
		alloc:    d.PMA,
		link:     d.Link,
		policy:   d.Evict,
		pf:       d.Prefetch,
		replayer: d.Replayer,
		m:        newMetrics(),
		rec:      d.Trace,
		inj:      d.Inject,
		tr:       d.Obs,
		life:     d.Life,
		res:      d.Residency,
		idle:     true,
		acc:      make([]faultbuf.Entry, 0, cfg.BatchSize),
	}
	if drv.res != nil {
		// Registered lazily so single-GPU metric snapshots are unchanged.
		drv.m.remoteMaps = drv.m.reg.Counter("remote_map_services")
	}
	return drv, nil
}

// Breakdown returns the accumulated per-phase time.
func (d *Driver) Breakdown() *stats.Breakdown { return &d.breakdown }

// Lifecycle returns the fault-lifecycle collector (nil when disabled).
func (d *Driver) Lifecycle() *obs.Lifecycle { return d.life }

// Idle reports whether a fault-handling pass is in flight.
func (d *Driver) Idle() bool { return d.idle }

// OnFault implements gpusim.Handler: the GPU raised an interrupt. A pass
// starts after the interrupt latency unless one is already running.
func (d *Driver) OnFault() {
	if !d.idle {
		return
	}
	d.idle = false
	d.m.passes.Inc(1)
	d.eng.After(d.cfg.InterruptLatency, d.fetchBatch)
}

// chargeSpan books simulated time into the span kind's breakdown phase
// and emits exactly one span covering the charged interval [now, now+dur].
// Being the single booking point is what makes span totals grouped by
// obs.PhaseOf reconcile exactly with the Breakdown: they are two views of
// the same charge.
func (d *Driver) chargeSpan(k obs.Kind, dur sim.Duration, arg int64) {
	if p, ok := obs.PhaseOf(k); ok {
		d.breakdown.Add(p, dur)
	}
	if d.tr.Enabled() {
		now := d.eng.Now()
		d.tr.Emit(k, now, now.Add(dur), d.batchSeq, arg)
	}
}

// beginBatch opens the batch envelope when a batch commits.
func (d *Driver) beginBatch(faults int) {
	d.batchSeq++
	d.batchStart = d.eng.Now()
	d.batchFaults = faults
	d.batchOpen = true
	d.m.batchFaults.Observe(sim.Duration(faults))
}

// closeBatch closes the envelope for the batch whose pipeline just
// finished (called as the next fetch begins, or at pass end): it feeds
// the per-batch latency histogram and emits the SpanBatch envelope.
func (d *Driver) closeBatch() {
	if !d.batchOpen {
		return
	}
	d.batchOpen = false
	now := d.eng.Now()
	d.m.batchNs.Observe(now.Sub(d.batchStart))
	d.tr.Emit(obs.SpanBatch, d.batchStart, now, d.batchSeq, int64(d.batchFaults))
}

// dma schedules a transfer, retrying transient failures with bounded
// exponential backoff on the simulated clock. After DMAMaxRetries failed
// attempts the transfer is forced through the non-abortable path (a
// synchronous copy that cannot be declined), so the pipeline always
// makes progress. It returns the completion time; backoff waits are part
// of it and therefore charged to whichever phase waits on the transfer.
func (d *Driver) dma(dir xfer.Direction, bytes int64) sim.Time {
	notBefore := d.eng.Now()
	backoff := d.cfg.DMABackoffBase
	for attempt := 0; ; attempt++ {
		end, ok := d.link.Attempt(dir, bytes, attempt, notBefore)
		if ok {
			return end
		}
		d.m.dmaFailures.Inc(1)
		if attempt >= d.cfg.DMAMaxRetries {
			d.m.dmaGiveups.Inc(1)
			return d.link.Enqueue(dir, bytes, nil)
		}
		d.m.dmaRetries.Inc(1)
		d.m.dmaBackoffNs.Inc(uint64(backoff))
		notBefore = end.Add(backoff)
		backoff *= 2
		if backoff > d.cfg.DMABackoffMax {
			backoff = d.cfg.DMABackoffMax
		}
	}
}

// fetchBatch reads the next batch of ready fault entries, or ends the
// pass when the buffer has drained. The previous batch's envelope closes
// here: its pipeline has fully retired once the next fetch begins, which
// is also what makes the accumulation scratch safe to reclaim.
func (d *Driver) fetchBatch() {
	d.closeBatch()
	d.fetchMore(d.acc[:0])
}

// fetchMore accumulates ready entries into the current batch, applying
// the configured fetch mode when a not-ready entry blocks the head. acc
// is the driver's batch-scoped scratch slice (or a poll continuation of
// it); entries are appended in place, so a steady-state fetch performs
// no allocations.
func (d *Driver) fetchMore(acc []faultbuf.Entry) {
	now := d.eng.Now()
	prev := len(acc)
	acc = d.buf.AppendReady(acc, d.cfg.BatchSize-len(acc), now)
	d.acc = acc // retain any capacity growth for the next batch
	if d.life.Enabled() {
		for _, e := range acc[prev:] {
			d.life.Fetched(e.Seq, now)
		}
	}
	headBlocked := d.buf.Len() > 0 && len(acc) < d.cfg.BatchSize
	if headBlocked && (len(acc) == 0 || d.cfg.Fetch == FetchFillBatch) {
		// Nothing usable yet, or fill-batch mode wants a full batch:
		// poll the not-ready head.
		d.m.polls.Inc(1)
		d.chargeSpan(obs.SpanPoll, d.cfg.PollInterval, 0)
		acc := acc
		d.eng.After(d.cfg.PollInterval, func() { d.fetchMore(acc) })
		return
	}
	if len(acc) == 0 {
		d.endPass()
		return
	}
	d.m.batches.Inc(1)
	d.m.faultsFetched.Inc(uint64(len(acc)))
	d.beginBatch(len(acc))
	cost := d.cfg.FetchFixed +
		sim.Duration(len(acc))*(d.cfg.FetchPerFault+d.cfg.BookkeepPerFault)
	d.chargeSpan(obs.SpanFetch, cost, int64(len(acc)))
	d.eng.After(cost, func() { d.preprocess(acc) })
}

// bin is the per-VABlock grouping of one batch's faults. Bins live in
// the driver's batch-scoped pool: their bitmaps (and origin map, when
// enabled) are allocated once and reset on reuse.
type bin struct {
	block    mem.VABlockID
	demanded *mem.Bitmap // in-block page indexes demanded in this batch
	writes   *mem.Bitmap // demanded pages with write access
	sms      map[int]int // page index -> originating SM (origin-info extension)
	seqs     []uint64    // member fault sequence numbers (lifecycle tracking only)
}

// getBin returns a reset bin for block id, reusing a pooled one when
// available.
func (d *Driver) getBin(id mem.VABlockID, geom mem.Geometry) *bin {
	if n := len(d.binFree); n > 0 {
		b := d.binFree[n-1]
		d.binFree = d.binFree[:n-1]
		b.block = id
		b.demanded.Reset()
		b.writes.Reset()
		if b.sms != nil {
			clear(b.sms)
		}
		b.seqs = b.seqs[:0]
		return b
	}
	b := &bin{
		block:    id,
		demanded: mem.NewBitmap(geom.PagesPerVABlock),
		writes:   mem.NewBitmap(geom.PagesPerVABlock),
	}
	if d.cfg.FaultOriginInfo {
		b.sms = make(map[int]int)
	}
	return b
}

// binBatch groups the batch's entries into per-VABlock bins, sorted by
// ascending block ID and rotated across batches. It reclaims the
// previous batch's bins first — safe because the pipeline is strictly
// serial, so by the time the next batch reaches preprocess the previous
// one has fully retired (batchEnd ran before this fetch). Steady state
// allocates nothing (pinned by TestPreprocessSteadyStateAllocFree).
func (d *Driver) binBatch(entries []faultbuf.Entry) []*bin {
	geom := d.space.Geometry()
	// Only the previous batch's blocks hold index entries: reset those
	// rather than the whole table.
	for _, b := range d.bins {
		*d.binIndex.At(b.block) = 0
	}
	d.binFree = append(d.binFree, d.bins...)
	d.bins = d.bins[:0]
	var dups uint64
	for _, e := range entries {
		id := geom.BlockOf(e.Page)
		slot := d.binIndex.At(id)
		if *slot == 0 {
			d.bins = append(d.bins, d.getBin(id, geom))
			*slot = len(d.bins)
		}
		b := d.bins[*slot-1]
		idx := geom.PageIndex(e.Page)
		if !b.demanded.Set(idx) {
			dups++
		}
		if e.Write {
			b.writes.Set(idx)
		}
		if b.sms != nil {
			b.sms[idx] = e.SM
		}
		if d.life.Enabled() {
			// Deduplicated entries stay bin members: their lifecycle ends
			// with the bin's service and replay like any other.
			b.seqs = append(b.seqs, e.Seq)
		}
	}
	d.m.faultsDeduped.Inc(dups)
	ordered := d.bins
	slices.SortFunc(ordered, func(a, b *bin) int {
		switch {
		case a.block < b.block:
			return -1
		case a.block > b.block:
			return 1
		default:
			return 0
		}
	})
	// The service order must be fully determined by the batch contents:
	// block IDs are unique within a batch (the bin index guarantees it),
	// so the sort has no ties and no order instability to hide behind.
	// assertUniqueBlocks keeps that invariant explicit.
	assertUniqueBlocks(ordered)
	// Rotate the service order across batches. When a batch spans more
	// VABlocks than the framebuffer holds, a fixed order would make the
	// allocation of the batch's tail bins always evict the same
	// head bins (LRU cascade), permanently starving the warps behind
	// them; rotation guarantees every block periodically survives a
	// batch. At real scale (capacity >> bins per batch) this changes
	// nothing.
	if n := len(ordered); n > 1 {
		rotateLeft(ordered, int(d.m.batches.Get())%n)
	}
	return ordered
}

// assertUniqueBlocks panics when two bins share a block ID. Duplicate
// bins would make the service order depend on sort-internal tie
// handling and double-service a block's faults; the binning index makes
// them impossible, and this assertion keeps it that way.
func assertUniqueBlocks(ordered []*bin) {
	for i := 1; i < len(ordered); i++ {
		if ordered[i].block <= ordered[i-1].block {
			panic(fmt.Sprintf("driver: duplicate bin for block %d in one batch", ordered[i].block))
		}
	}
}

// rotateLeft rotates s in place so s[rot] becomes the first element
// (three-reversal rotation, no scratch slice).
func rotateLeft[T any](s []T, rot int) {
	slices.Reverse(s[:rot])
	slices.Reverse(s[rot:])
	slices.Reverse(s)
}

// preprocess sorts and bins the batch by VABlock, deduplicating repeated
// pages (the "basic bookkeeping and logical checks").
func (d *Driver) preprocess(entries []faultbuf.Entry) {
	ordered := d.binBatch(entries)
	cost := sim.Duration(len(entries)) * d.cfg.SortPerFault
	d.chargeSpan(obs.SpanSort, cost, int64(len(entries)))
	d.eng.After(cost, func() { d.serviceBlock(ordered, 0) })
}

// serviceBlock services the i-th bin, then continues with the rest of the
// batch.
func (d *Driver) serviceBlock(bins []*bin, i int) {
	if i >= len(bins) {
		d.batchEnd()
		return
	}
	b := bins[i]
	block := d.space.Block(b.block)
	if d.res != nil && !block.Allocated {
		// Multi-GPU: a block a peer owns (or that this device already
		// remote-mapped) services as a remote mapping, not a migration.
		if block.Remote || d.res.Classify(b.block) == OwnPeer {
			d.serviceRemote(bins, i)
			return
		}
	}
	if !block.Allocated {
		d.ensureAlloc(bins, i)
		return
	}
	d.policy.Touch(block)
	block.Touches++
	d.migrate(bins, i)
}

// ensureAlloc reserves physical backing for the bin's block, evicting
// under memory pressure and restarting (the paper's lock-drop restart).
func (d *Driver) ensureAlloc(bins []*bin, i int) {
	block := d.space.Block(bins[i].block)
	if d.res != nil && (block.Remote || d.res.Classify(bins[i].block) == OwnPeer) {
		// A peer claimed the block while this device waited out an
		// eviction retry; service it as a remote mapping instead.
		d.serviceRemote(bins, i)
		return
	}
	cost, err := d.alloc.Alloc()
	if err == nil {
		block.Allocated = true
		d.policy.Insert(block)
		block.Touches++
		if d.res != nil {
			d.res.Claimed(block)
		}
		d.chargeSpan(obs.SpanPMAAlloc, cost, 1)
		d.eng.After(cost, func() { d.migrate(bins, i) })
		return
	}
	// Out of memory: evict the policy's victim and restart this block's
	// faulting path.
	victim := d.policy.Victim()
	if victim == nil {
		panic("driver: allocation failed with no eviction candidates")
	}
	evictCost, evictedPages := d.evictBlock(victim)
	d.chargeSpan(obs.SpanEvict, cost+evictCost, int64(evictedPages))
	d.eng.After(cost+evictCost, func() { d.ensureAlloc(bins, i) })
}

// evictBlock writes back the victim's dirty pages, unmaps it, and
// releases its physical backing. It returns the simulated cost (CPU work
// plus waiting for the write-back DMA) and the resident pages released.
func (d *Driver) evictBlock(victim *mem.VABlock) (sim.Duration, int) {
	now := d.eng.Now()
	resident := victim.Resident.Count()
	var dirtyPages int
	var dmaEnd sim.Time = now
	victim.Dirty.Runs(func(lo, hi int) {
		n := hi - lo
		dirtyPages += n
		end := d.dma(xfer.DeviceToHost, mem.Bytes(n))
		if end > dmaEnd {
			dmaEnd = end
		}
	})
	cpu := d.cfg.EvictFixed + sim.Duration(resident)*d.cfg.EvictPerPage + d.alloc.Free()
	if d.inj != nil {
		if stall := d.inj.EvictStall(); stall > 0 {
			d.m.evictStalls.Inc(1)
			cpu += stall
		}
	}
	d.m.evictions.Inc(1)
	d.m.evictedPages.Inc(uint64(resident))
	d.m.evictedDirtyPages.Inc(uint64(dirtyPages))
	d.policy.Remove(victim)
	victim.Resident.Reset()
	victim.Dirty.Reset()
	victim.Allocated = false
	victim.Evictions++
	if d.res != nil {
		d.res.Released(victim)
	}
	d.rec.Record(now, trace.KindEvict, d.space.Geometry().FirstPage(victim.ID), victim.ID, victim.Range)

	total := cpu
	if wait := dmaEnd.Sub(now); wait > total {
		total = wait
	}
	return total, resident
}

// migrate plans the fetch set (demand + prefetch), zeroes and stages
// pages, and issues the DMA; mapping follows when both the CPU work and
// the transfers complete.
func (d *Driver) migrate(bins []*bin, i int) {
	b := bins[i]
	block := d.space.Block(b.block)
	geom := d.space.Geometry()
	ctx := &prefetch.Context{
		Geom:           geom,
		Block:          block,
		Valid:          d.space.ValidPagesIn(b.block),
		Faulted:        b.demanded,
		FaultSMs:       b.sms,
		Oversubscribed: d.alloc.Exhausted(),
	}
	res := d.pf.Plan(ctx)
	if res.Fetch.Count() == 0 {
		// Every demanded page is already resident (serviced by an earlier
		// batch); only fixed bookkeeping remains.
		d.m.staleBins.Inc(1)
		cost := d.cfg.ServiceFixedPerBlock
		d.chargeSpan(obs.SpanMigrate, cost, 0)
		d.eng.After(cost, func() { d.afterMap(bins, i, res) })
		return
	}

	now := d.eng.Now()
	runs := 0
	var dmaEnd sim.Time = now
	res.Fetch.Runs(func(lo, hi int) {
		runs++
		end := d.dma(xfer.HostToDevice, mem.Bytes(hi-lo))
		if end > dmaEnd {
			dmaEnd = end
		}
	})
	cpu := d.cfg.ServiceFixedPerBlock + d.cfg.PrefetchPlanPerBlock +
		sim.Duration(runs)*d.cfg.StagePerRun +
		sim.Duration(res.Fetch.Count())*d.cfg.ZeroPerPage
	mapStart := now.Add(cpu)
	if dmaEnd > mapStart {
		mapStart = dmaEnd
	}
	d.chargeSpan(obs.SpanMigrate, mapStart.Sub(now), int64(res.Fetch.Count()))
	d.m.migratedPages.Inc(uint64(res.Fetch.Count()))
	d.m.demandPages.Inc(uint64(res.Faulted))
	d.m.prefetchedPages.Inc(uint64(res.Prefetched))
	d.eng.At(mapStart, func() { d.mapBlock(bins, i, res) })
}

// mapOps counts PTE writes for a fetch set. A 64 KB-aligned chunk fully
// present in the fetch set maps with a single big-page PTE only when the
// prefetcher populated it (the big-page upgrade is what enables 64 KB
// PTEs); purely demanded pages map as individual 4 KB PTEs, which is why
// prefetching reduces mapping cost beyond just eliminating faults.
func mapOps(fetch, demanded *mem.Bitmap) int {
	ops := 0
	fetch.Runs(func(lo, hi int) {
		// Walk the run one 64 KB chunk at a time instead of page by page:
		// a chunk is either fully inside the run (one popcount decides big
		// vs. small PTEs) or partial (always small PTEs, counted
		// arithmetically).
		for p := lo; p < hi; {
			next := mem.BigPageBase(p) + mem.PagesPerBigPage
			switch {
			case p != mem.BigPageBase(p) || next > hi:
				// Partial chunk: individual 4 KB PTEs.
				if next > hi {
					next = hi
				}
				ops += next - p
			case demanded.CountRange(p, next) < mem.PagesPerBigPage:
				// Full chunk with at least one prefetched page: the
				// big-page upgrade enables a single 64 KB PTE.
				ops++
			default:
				// Full chunk, purely demanded: 16 individual PTEs.
				ops += mem.PagesPerBigPage
			}
			p = next
		}
	})
	return ops
}

// mapBlock updates page tables and residency, records trace events, and
// hands control back to the batch loop (replaying first under the Block
// policy).
func (d *Driver) mapBlock(bins []*bin, i int, res tree.Result) {
	b := bins[i]
	block := d.space.Block(b.block)
	geom := d.space.Geometry()
	now := d.eng.Now()
	first := geom.FirstPage(b.block)

	cost := sim.Duration(mapOps(res.Fetch, b.demanded))*d.cfg.MapPerOp + d.cfg.MembarPerBlock
	d.chargeSpan(obs.SpanMap, cost, int64(res.Fetch.Count()))

	if d.res == nil || block.Allocated {
		// Multi-GPU: an access-counter migration can strip this block's
		// backing between migrate and mapBlock; installing residency bits
		// on the unbacked view would corrupt the residency map, so the
		// update is skipped and the replayed warps re-fault remotely.
		res.Fetch.ForEachSet(func(idx int) {
			block.Resident.Set(idx)
			kind := trace.KindPrefetch
			if b.demanded.Get(idx) {
				kind = trace.KindFault
			}
			d.rec.Record(now, kind, first+mem.PageID(idx), b.block, block.Range)
		})
		if block.ReadDup {
			// Read-duplication keeps the host copy valid: the migrated pages
			// are clean duplicates (eviction will release them without
			// write-back as long as the GPU does not mutate them).
			d.m.readdupPages.Inc(uint64(res.Fetch.Count()))
		}
	}
	d.servicedSinceReplay++
	d.eng.After(cost, func() { d.afterMap(bins, i, res) })
}

// afterMap applies the per-block replay policy and advances to the next
// bin.
func (d *Driver) afterMap(bins []*bin, i int, res tree.Result) {
	if d.life.Enabled() {
		// A stale bin's faults are duplicates: their warps were woken by
		// an earlier replay and found the pages resident, so service
		// completion is their terminal state. Live bins' faults wait for
		// the replay that wakes their still-stalled warps.
		now := d.eng.Now()
		stale := res.Fetch.Count() == 0
		for _, seq := range bins[i].seqs {
			if stale {
				d.life.ServicedStale(seq, now)
			} else {
				d.life.Serviced(seq, now)
			}
		}
	}
	if d.cfg.Policy == ReplayBlock {
		d.issueReplay(func() { d.serviceBlock(bins, i+1) })
		return
	}
	d.serviceBlock(bins, i+1)
}

// batchEnd applies the per-batch replay policy, then fetches the next
// batch.
func (d *Driver) batchEnd() {
	switch d.cfg.Policy {
	case ReplayBatchFlush:
		n := d.buf.Len()
		flushCost := d.cfg.FlushFixed + sim.Duration(n)*d.cfg.FlushPerEntry
		discarded := d.buf.Flush()
		d.m.flushes.Inc(1)
		d.m.flushDiscarded.Inc(uint64(discarded))
		d.chargeSpan(obs.SpanFlush, flushCost, int64(discarded))
		d.eng.After(flushCost, func() {
			d.issueReplay(d.fetchBatch)
		})
	case ReplayBatch:
		d.issueReplay(d.fetchBatch)
	default: // ReplayBlock already replayed per block; ReplayOnce waits.
		d.eng.After(0, d.fetchBatch)
	}
}

// issueReplay charges the replay cost, commands the GPU, and continues
// with next.
func (d *Driver) issueReplay(next func()) {
	d.m.replays.Inc(1)
	d.servicedSinceReplay = 0
	// Every replay wakes all stalled warps, so faults dropped before this
	// point will be re-raised by their warps; no forced replay is owed
	// for them.
	d.dropsReplayed = d.buf.Drops()
	d.chargeSpan(obs.SpanReplay, d.cfg.ReplayIssue, 0)
	d.life.Replayed(d.eng.Now())
	d.replayer.Replay()
	d.eng.After(d.cfg.ReplayIssue, next)
}

// endPass finishes the pass; under the Once policy this is where the
// single replay fires. Before going idle the driver settles its debt to
// dropped faults: a fault rejected by a full (or perturbed) buffer has
// no entry anywhere, so only a replay makes its stalled warp re-raise
// it — real hardware's buffer-full degradation. Going idle with unpaid
// drops would deadlock the warp.
func (d *Driver) endPass() {
	d.closeBatch()
	d.syncBufCounters()
	if d.cfg.Policy == ReplayOnce && d.servicedSinceReplay > 0 {
		d.issueReplay(func() {
			d.idle = true
			d.rearmIfWork()
		})
		return
	}
	if d.buf.Drops() > d.dropsReplayed {
		d.m.forcedReplays.Inc(1)
		d.issueReplay(func() {
			d.idle = true
			d.rearmIfWork()
		})
		return
	}
	d.idle = true
	d.rearmIfWork()
}

// syncBufCounters mirrors the fault buffer's cumulative accounting into
// the driver counter set so overflow is visible in every report instead
// of silently absorbed.
func (d *Driver) syncBufCounters() {
	d.m.reg.Gauge("faultbuf_drops").Set(d.buf.Drops())
	d.m.reg.Gauge("faultbuf_flushed").Set(d.buf.Flushed())
	// The injection mirrors register lazily so they appear in reports
	// only when injection actually fired, as before the registry.
	if inj := d.buf.InjectedDrops(); inj > 0 {
		d.m.reg.Gauge("faultbuf_injected_drops").Set(inj)
	}
	if dups := d.buf.InjectedDups(); dups > 0 {
		d.m.reg.Gauge("faultbuf_injected_dups").Set(dups)
	}
}

// rearmIfWork restarts a pass when entries arrived while the pass was
// shutting down (they would otherwise wait for the next interrupt, but
// the interrupt already fired and was absorbed by the running pass).
// Unpaid drops re-arm too: the new pass's endPass issues the forced
// replay that recovers their stalled warps.
func (d *Driver) rearmIfWork() {
	if d.buf.Len() > 0 || d.buf.Drops() > d.dropsReplayed {
		d.OnFault()
	}
}
