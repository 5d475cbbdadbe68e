package exp

import (
	"fmt"

	"uvmsim/internal/analyze"
	"uvmsim/internal/core"
	"uvmsim/internal/stats"
	"uvmsim/internal/trace"
	"uvmsim/internal/workloads"
)

// Table1 reproduces Table I: total faults with prefetching disabled vs
// enabled, and the fault reduction percentage, for the full benchmark
// suite at a relatively large undersubscribed size (50% of GPU memory).
// The paper finds at least 64% reduction for every workload.
func Table1(sc Scale) ([]*stats.Table, error) {
	bytes := sc.GPUMemoryBytes / 2
	t := stats.NewTable("Table I: application fault reduction from prefetching",
		"workload", "total_faults", "faults_w_prefetch", "reduction_pct")
	t.Note = fmt.Sprintf("undersubscribed footprint = %.0f MB (50%% of GPU memory)", mb(bytes))
	names := workloads.Names()
	if sc.Quick {
		names = []string{"regular", "random", "stream"}
	}
	q := sc.newQueue()
	for _, name := range names {
		off := make([]*cellResult, 1)
		labelOff := fmt.Sprintf("tab1 workload=%s prefetch=off seed=%d", name, sc.Seed)
		q.add(labelOff, func() (func(), error) {
			cfgOff := sc.sysConfig()
			cfgOff.PrefetchPolicy = "none"
			cell, err := runWorkloadCell(sc, labelOff, cfgOff, name, bytes, sc.params())
			if err != nil {
				return nil, fmt.Errorf("table1 %s (prefetch off): %w", name, err)
			}
			off[0] = cell
			return nil, nil
		})
		labelOn := fmt.Sprintf("tab1 workload=%s prefetch=on seed=%d", name, sc.Seed)
		q.add(labelOn, func() (func(), error) {
			on, err := runWorkloadCell(sc, labelOn, sc.sysConfig(), name, bytes, sc.params())
			if err != nil {
				return nil, fmt.Errorf("table1 %s (prefetch on): %w", name, err)
			}
			return func() {
				reduction := 0.0
				if off[0].res.Faults > 0 {
					reduction = 1 - float64(on.res.Faults)/float64(off[0].res.Faults)
				}
				t.AddRow(name, off[0].res.Faults, on.res.Faults, pct(reduction))
			}, nil
		})
	}
	if err := q.run(); err != nil {
		return nil, err
	}
	return []*stats.Table{t}, nil
}

// traceWorkload runs one workload with tracing enabled and returns the
// system (holding the recorder) and its result. footprintFrac is the data
// size as a fraction of GPU memory; prefetchPolicy "none" is the paper's
// Fig. 7 setting, and "" keeps the scale's default policy.
func traceWorkload(sc Scale, name string, footprintFrac float64, prefetchPolicy string) (*core.System, *core.RunResult, error) {
	cfg := sc.sysConfig()
	cfg.TraceCapacity = -1
	if prefetchPolicy != "" {
		cfg.PrefetchPolicy = prefetchPolicy
	}
	bytes := int64(footprintFrac * float64(sc.GPUMemoryBytes))
	label := fmt.Sprintf("trace workload=%s footprint=%.2f prefetch=%s seed=%d", name, footprintFrac, cfg.PrefetchPolicy, sc.Seed)
	cell, err := runWorkloadCell(sc, label, cfg, name, bytes, sc.params())
	if err != nil {
		return nil, nil, err
	}
	return cell.sys, cell.res, nil
}

// Fig7 reproduces Figure 7 in summary form: per-workload fault-pattern
// statistics with prefetching disabled. The full scatter data (fault
// occurrence vs page index) is exported by `uvmreport -csv`. The
// correlation column is the Pearson correlation between fault occurrence
// order and page index — near 1 for the diagonal band of a streaming
// pattern, near 0 for uniform random scatter.
func Fig7(sc Scale) ([]*stats.Table, error) {
	t := stats.NewTable("Fig 7: driver-observed access patterns (prefetch disabled)",
		"workload", "ranges", "pages", "faults", "order_page_corr", "coverage_pct")
	names := workloads.Names()
	if sc.Quick {
		names = []string{"regular", "random"}
	}
	// The footprint must dwarf the in-flight warp window or the whole
	// dataset faults at launch and every pattern looks random.
	frac := 0.5
	if sc.Quick {
		frac = 0.75
	}
	q := sc.newQueue()
	for _, name := range names {
		q.add(fmt.Sprintf("fig7 workload=%s seed=%d", name, sc.Seed), func() (func(), error) {
			sys, res, err := traceWorkload(sc, name, frac, "none")
			if err != nil {
				return nil, fmt.Errorf("fig7 %s: %w", name, err)
			}
			rep, err := analyze.Analyze(sys.Trace(), sys.Space())
			if err != nil {
				return nil, err
			}
			return func() {
				comp := trace.NewCompressor(sys.Space())
				t.AddRow(name, len(sys.Space().Ranges()), comp.Total(), res.Faults,
					rep.OrderPageCorrelation, pct(rep.CoverageFraction))
			}, nil
		})
	}
	if err := q.run(); err != nil {
		return nil, err
	}
	return []*stats.Table{t}, nil
}
