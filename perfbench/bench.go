package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"
)

// profiler accumulates CPU samples over the traced passes only.
type profiler struct {
	buf  bytes.Buffer
	flat map[string]int64
}

func (p *profiler) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	flat, err := flatSamples(p.buf.Bytes())
	if err != nil {
		return err
	}
	if p.flat == nil {
		p.flat = map[string]int64{}
	}
	for fn, n := range flat {
		p.flat[fn] += n
	}
	return nil
}

// traced runs fn as a traced pass: CPU profile on, spans recorded.
func traced(p *profiler, fn func() error) error {
	if err := p.start(); err != nil {
		return err
	}
	err := fn()
	if perr := p.stop(); err == nil {
		err = perr
	}
	return err
}

// runCells runs a cell workload: set-up, the fixed passes, then the
// output checks against a -jobs 1 reference sweep. A traced run makes
// the same number of passes, alternating untraced and traced ones.
func runCells(ctx context.Context, wl *workload, seed uint64, passes int, trace bool, startup time.Duration) (*result, error) {
	specs := wl.specs(seed)
	r := newResult()

	var setups []time.Duration
	for i := 0; i < setupRepeats; i++ {
		// Each set-up starts, as in a fresh process, with no garbage
		// left to collect, so no GC cycle of earlier work lands in it.
		runtime.GC()
		c0 := cpuTime()
		for _, s := range specs {
			if _, err := s.Configs(); err != nil {
				return nil, err
			}
		}
		warm := wl.warmup(seed)
		cfgs, err := warm.Configs()
		if err != nil {
			return nil, err
		}
		if _, _, err := runCell(warm, cfgs[0], nil, map[string]uint64{}); err != nil {
			return nil, fmt.Errorf("warm-up cell: %w", err)
		}
		setups = append(setups, cpuTime()-c0)
	}

	var tr *tracer
	var prof profiler
	var plain, withTrace []*cellPass
	if trace {
		tr = newTracer()
	}
	for i := 0; i < passes; i++ {
		var p *cellPass
		var err error
		if trace && i%2 == 1 {
			err = traced(&prof, func() (err error) { p, err = runCellPass(specs, tr); return err })
			if p != nil {
				withTrace = append(withTrace, p)
			}
		} else {
			p, err = runCellPass(specs, nil)
			if p != nil {
				plain = append(plain, p)
			}
		}
		if err != nil {
			return nil, err
		}
		r.attempted += len(p.cells)
	}

	ref, sweepWalls, err := referenceSweep(ctx, specs)
	if err != nil {
		return nil, err
	}
	all := append(append([]*cellPass(nil), plain...), withTrace...)
	var csvs [][]byte
	var counts []map[string]uint64
	for _, p := range all {
		csvs = append(csvs, p.csv)
		counts = append(counts, p.counts)
	}
	checkOutputs(r, wl.name, seed, ref, csvs, counts, len(all[0].cells))

	if !trace {
		var walls, cpus []time.Duration
		var allocs, cellMs []float64
		for _, p := range plain {
			walls = append(walls, p.wall)
			cpus = append(cpus, p.cpu)
			allocs = append(allocs, p.allocMB)
			for _, c := range p.cells {
				cellMs = append(cellMs, ms(c.cpu))
			}
		}
		r.put("setup_s", "s", (startup + medianDur(setups)).Seconds(),
			fmt.Sprintf("process start %.1f ms + median of %d set-ups", ms(startup), len(setups)))
		r.timing("cpu_s", "s", toSeconds(cpus), 50)
		r.put("peak_rss_mb", "MiB", peakRSSMiB(), "")
		r.timing("alloc_mb", "MiB", allocs, 50)
		// A cell is one call on one goroutine with nothing else running,
		// so its cost is the process CPU time it takes, GC included. Its
		// wall time also counts the time the host lets other tenants run
		// on the virtual CPU (steal).
		r.timing("cell_ms_p50", "ms", cellMs, 50)
		r.timing("cell_ms_p90", "ms", cellMs, 90)
		r.timing("wall_s", "s", toSeconds(walls), 50) // for reading only: not in BENCHMARK.json
		return r, nil
	}

	// The workload's own cells through one traced fleet round, outside
	// the profile: the fleet layers measured where simulation dwarfs them.
	ft := newFleetTimes()
	fr, err := runFleetRound(ctx, wl.warmup(seed), specs, ft, tr)
	if err != nil {
		return nil, err
	}
	r.attempted += len(fr.csvs) * len(all[0].cells)
	for i, csv := range fr.csvs {
		if !bytes.Equal(csv, ref) {
			r.mismatch(len(all[0].cells), "fleet pass %d: merged tables differ from the -jobs 1 reference sweep", i)
		}
	}
	if ft.failed > 0 {
		r.mismatch(ft.failed, "%d fleet cells did not complete", ft.failed)
	}

	putCellLayers(r, withTrace)
	putSweepOverhead(r, plain, sweepWalls)
	putProfile(r, prof.flat)
	putFleetLayers(r, ft, fr.counts, "one fleet round of this workload's cells")
	r.put("trace.overhead_frac", "fraction", overhead(passCPU(withTrace), passCPU(plain)), "traced/untraced cpu_s - 1")
	putRemainders(r, tr.snapshot())
	return r, tr.write(traceFile(wl.name, seed))
}

func putRemainders(r *result, spans []span) {
	r.put("layersum.cell_remainder_frac", "fraction", remainderFrac(spans, "cell"),
		"median share of a cell not covered by NewSystem+build+RunUVM")
	r.put("layersum.fleet_remainder_frac", "fraction", remainderFrac(spans, "fleet.cell"),
		"median share of a fleet cell not covered by lease+lookup+complete")
}

func medianDur(xs []time.Duration) time.Duration {
	return time.Duration(median(toSeconds(xs)) * float64(time.Second))
}

func passCPU(ps []*cellPass) []time.Duration {
	var out []time.Duration
	for _, p := range ps {
		out = append(out, p.cpu)
	}
	return out
}

func overhead(traced, plain []time.Duration) float64 {
	return frac(median(toSeconds(traced)), median(toSeconds(plain))) - 1
}

// putCellLayers reports the core-side layers from traced passes: per
// pass sums of the layer calls (median over passes) and exact counts.
func putCellLayers(r *result, ps []*cellPass) {
	var build, buildA, newSys, run, runA, simRatio, evPerS, nsPerFault []float64
	for _, p := range ps {
		var b, ba, n, ru, ra float64
		var simNs int64
		for _, c := range p.cells {
			b += ms(c.build)
			ba += float64(c.buildAllocBytes) / float64(mib)
			n += ms(c.newSys)
			ru += ms(c.run)
			ra += float64(c.runAllocBytes) / float64(mib)
			simNs += c.simNs
		}
		build, buildA, newSys, run, runA = append(build, b), append(buildA, ba), append(newSys, n), append(run, ru), append(runA, ra)
		simRatio = append(simRatio, frac(float64(simNs), ru*1e6))
		evPerS = append(evPerS, frac(float64(p.counts["sim.events"]), ru/1e3))
		nsPerFault = append(nsPerFault, frac(ru*1e6, float64(p.counts["driver.faults_fetched"])))
	}
	n := fmt.Sprintf("median of %d traced passes", len(ps))
	r.put("workloads.build_ms", "ms", median(build), n)
	r.put("workloads.alloc_mb", "MiB", median(buildA), n)
	r.put("core.new_system_ms", "ms", median(newSys), n)
	r.put("core.run_uvm_ms", "ms", median(run), n)
	r.put("core.run_alloc_mb", "MiB", median(runA), n)
	r.put("core.sim_ns_per_wall_ns", "ratio", median(simRatio), n)
	r.put("sim.events_per_s", "1/s", median(evPerS), n)
	r.put("driver.host_ns_per_fault", "ns", median(nsPerFault), n)

	c := ps[0].counts
	for _, name := range countNames {
		switch name {
		case "xfer.h2d_bytes", "xfer.d2h_bytes":
			continue
		}
		r.put(name, "count", float64(c[name]), "exact, per pass")
	}
	r.put("xfer.h2d_mb", "MiB", float64(c["xfer.h2d_bytes"])/float64(mib), "exact, per pass")
	r.put("xfer.d2h_mb", "MiB", float64(c["xfer.d2h_bytes"])/float64(mib), "exact, per pass")
	r.put("gpusim.coalesce_frac", "fraction", frac(float64(c["gpusim.faults_coalesced"]), float64(c["gpusim.faults_raised"]+c["gpusim.faults_coalesced"])), "")
	r.put("driver.dedup_frac", "fraction", frac(float64(c["driver.faults_deduped"]), float64(c["driver.faults_fetched"])), "wasted fetches")
	r.put("prefetch.share_frac", "fraction", frac(float64(c["prefetch.prefetched_pages"]), float64(c["prefetch.prefetched_pages"]+c["prefetch.demand_pages"])), "")

}

// putSweepOverhead reports what running a cell through sweep costs on
// top of the direct layer calls: per cell, the reference sweep's cell
// wall minus the median new+build+run of the same cell over untraced
// direct passes; the median over cells.
func putSweepOverhead(r *result, ps []*cellPass, sweepWalls []time.Duration) {
	var over []float64
	for i, w := range sweepWalls {
		var direct []float64
		for _, p := range ps {
			c := p.cells[i]
			direct = append(direct, ms(c.newSys+c.build+c.run))
		}
		over = append(over, ms(w)-median(direct))
	}
	r.put("sweep.cell_overhead_ms", "ms", median(over),
		fmt.Sprintf("median over %d cells of sweep cell wall - (new+build+run)", len(over)))
}

func putProfile(r *result, flat map[string]int64) {
	var total int64
	for _, n := range flat {
		total += n
	}
	shares := bucketShares(flat)
	for _, b := range profBuckets {
		r.put("prof."+b+"_pct", "%", shares[b], fmt.Sprintf("of %d CPU samples", total))
	}
}

// putFleetLayers reports the serve, dist and cachetier layers from
// traced fleet rounds; scope says what the exact counts cover.
func putFleetLayers(r *result, ft *fleetTimes, c map[string]uint64, scope string) {
	ft.mu.Lock()
	node := ft.nodeMs
	lease, complete, lookup := ft.leaseMs, ft.completeMs, ft.lookupMs
	ft.mu.Unlock()
	r.timing("serve.hit_ms_p50", "ms", node["sim/hit"], 50)
	r.timing("serve.miss_ms_p50", "ms", node["sim/miss"], 50)
	r.timing("serve.cachefill_ms_p50", "ms", node["cachefill"], 50)
	r.timing("dist.lease_ms_p50", "ms", lease, 50)
	r.timing("dist.complete_ms_p50", "ms", complete, 50)
	r.timing("cachetier.lookup_ms_p50", "ms", lookup, 50)
	r.timing("cachetier.wait_ms_p50", "ms", ft.waitMs(), 50)
	for _, m := range [][2]string{
		{"serve.cache_hits", "serve.cache_hits"},
		{"serve.cache_misses", "serve.cache_misses"},
		{"serve.coalesced", "serve.coalesced"},
		{"serve.rejected", "serve.rejected"},
		{"dist.leases_granted", "dist_leases_granted_total"},
		{"dist.retries", "dist_retries_total"},
		{"cachetier.hits", "cachetier_hits_total"},
		{"cachetier.misses", "cachetier_misses_total"},
		{"cachetier.failovers", "cachetier_failovers_total"},
		{"cachetier.fills", "cachetier_fills_total"},
		{"cachetier.fill_errors", "cachetier_fill_errors_total"},
	} {
		r.put(m[0], "count", float64(c[m[1]]), "exact, "+scope)
	}
	r.put("dist.regrant_frac", "fraction", frac(float64(c["dist_retries_total"]), float64(c["dist_leases_granted_total"])), "")
	r.put("cachetier.hit_frac", "fraction", frac(float64(c["cachetier_hits_total"]), float64(c["cachetier_lookups_total"])), "")
}
