package exp

import (
	"fmt"
	"math"

	"uvmsim/internal/analyze"
	"uvmsim/internal/core"
	"uvmsim/internal/gpusim"
	"uvmsim/internal/stats"
	"uvmsim/internal/workloads"
)

// Fig9 reproduces Figure 9: driver cost breakdown for oversubscribed
// problem sizes with prefetching enabled. The paper's key observation is
// the order-of-magnitude gap between access patterns, driven by the
// asymmetry between eviction granularity (2 MB VABlock) and fault
// granularity (4 KB page).
func Fig9(sc Scale) ([]*stats.Table, error) {
	fractions := []float64{1.05, 1.2, 1.35, 1.5}
	if sc.Quick {
		fractions = []float64{1.2}
	}
	t := stats.NewTable("Fig 9: oversubscribed breakdown with prefetching",
		"pattern", "oversub_pct", "total_ms", "map_us", "evict_us", "replay_us",
		"faults", "evictions", "h2d_mb", "d2h_mb")
	t.Note = "map_us merges migration and mapping, matching the figure's 'Map' category"
	q := sc.newQueue()
	for _, pattern := range []string{"regular", "random"} {
		for _, f := range fractions {
			label := fmt.Sprintf("fig9 pattern=%s oversub=%.0f%% seed=%d", pattern, pct(f), sc.Seed)
			q.add(label,
				func() (func(), error) {
					bytes := int64(f * float64(sc.GPUMemoryBytes))
					cell, err := runWorkloadCell(sc, label, sc.sysConfig(), pattern, bytes, sc.params())
					if err != nil {
						return nil, fmt.Errorf("fig9 %s %.0f%%: %w", pattern, pct(f), err)
					}
					return func() {
						bd := cell.res.Breakdown
						t.AddRow(pattern, pct(f), ms(cell.res.TotalTime),
							us(bd.Get(stats.PhaseMigrate)+bd.Get(stats.PhaseMap)),
							us(bd.Get(stats.PhaseEvict)),
							us(bd.Get(stats.PhaseReplay)),
							cell.res.Faults, cell.res.Evictions,
							mb(cell.res.BytesH2D), mb(cell.res.BytesD2H))
					}, nil
				})
		}
	}
	if err := q.run(); err != nil {
		return nil, err
	}
	return []*stats.Table{t}, nil
}

// sgemmN returns the matrix dimension whose three-matrix footprint is
// frac of GPU memory.
func sgemmN(sc Scale, frac float64) int {
	return int(math.Sqrt(frac * float64(sc.GPUMemoryBytes) / 12.0))
}

// sgemmFractions is the Fig 10 / Table II size sweep relative to GPU
// memory. The paper sweeps n so the footprint crosses 100% and degrades
// sharply past ~120%; at this reduced scale the in-flight working set is
// proportionally smaller, so the same cliff appears around 170-200%
// (see EXPERIMENTS.md) and the sweep extends accordingly.
func sgemmFractions(sc Scale) []float64 {
	if sc.Quick {
		return []float64{0.9, 1.6}
	}
	return []float64{0.8, 0.95, 1.05, 1.2, 1.4, 1.7, 2.0}
}

// runSGEMM executes sgemm with the given footprint fraction and tracing
// switch, returning the cell and dimension.
func runSGEMM(sc Scale, label string, frac float64, traced bool) (*cellResult, int, error) {
	n := sgemmN(sc, frac)
	cfg := sc.sysConfig()
	if traced {
		cfg.TraceCapacity = -1
	}
	cell, err := runCell(sc, label, cfg, func(s *core.System) (*gpusim.Kernel, error) {
		return workloads.SGEMM(s, n, sc.params())
	})
	if err != nil {
		return nil, 0, err
	}
	return cell, n, nil
}

// Fig10 reproduces Figure 10: sgemm compute rate versus oversubscription.
// The rate is the algorithmic 2n^3 FLOP count over wall time; the paper's
// cliff past ~120% of GPU memory (evict-before-use) should appear.
func Fig10(sc Scale) ([]*stats.Table, error) {
	t := stats.NewTable("Fig 10: sgemm compute rate vs oversubscription",
		"n", "footprint_pct", "total_ms", "gflops", "faults", "evictions")
	q := sc.newQueue()
	for _, f := range sgemmFractions(sc) {
		label := fmt.Sprintf("fig10 footprint=%.0f%% seed=%d", pct(f), sc.Seed)
		q.add(label, func() (func(), error) {
			cell, n, err := runSGEMM(sc, label, f, false)
			if err != nil {
				return nil, fmt.Errorf("fig10 %.0f%%: %w", pct(f), err)
			}
			return func() {
				secs := cell.res.TotalTime.Seconds()
				gflops := 2 * math.Pow(float64(n), 3) / secs / 1e9
				t.AddRow(n, pct(f), ms(cell.res.TotalTime), gflops,
					cell.res.Faults, cell.res.Evictions)
			}, nil
		})
	}
	if err := q.run(); err != nil {
		return nil, err
	}
	return []*stats.Table{t}, nil
}

// Table2 reproduces Table II: sgemm fault and eviction scaling with
// problem size — faults, pages evicted (requiring migration), and
// evictions per fault.
func Table2(sc Scale) ([]*stats.Table, error) {
	t := stats.NewTable("Table II: sgemm fault scaling",
		"n", "footprint_pct", "faults", "pages_evicted", "evictions_per_fault")
	t.Note = "pages_evicted counts dirty pages explicitly migrated back to the host"
	q := sc.newQueue()
	for _, f := range sgemmFractions(sc) {
		label := fmt.Sprintf("table2 footprint=%.0f%% seed=%d", pct(f), sc.Seed)
		q.add(label, func() (func(), error) {
			cell, n, err := runSGEMM(sc, label, f, false)
			if err != nil {
				return nil, fmt.Errorf("table2 %.0f%%: %w", pct(f), err)
			}
			return func() {
				evictedPages := cell.res.Counters.Get("evicted_pages")
				perFault := 0.0
				if cell.res.Faults > 0 {
					perFault = float64(evictedPages) / float64(cell.res.Faults)
				}
				t.AddRow(n, pct(f), cell.res.Faults, evictedPages, perFault)
			}, nil
		})
	}
	if err := q.run(); err != nil {
		return nil, err
	}
	return []*stats.Table{t}, nil
}

// Fig8 reproduces Figure 8 in summary form: sgemm at ~120% of GPU memory
// with evictions recorded at their relative time step. The scatter CSV
// comes from `uvmreport -workload sgemm -footprint 1.2 -csv`; here we report the evict-then-refault
// statistic — data evicted immediately prior to being paged back in, the
// worst-case behavior the paper highlights.
func Fig8(sc Scale) ([]*stats.Table, error) {
	cell, n, err := runSGEMM(sc, fmt.Sprintf("fig8 footprint=120%% seed=%d", sc.Seed), 1.2, true)
	if err != nil {
		return nil, err
	}
	rep, err := analyze.Analyze(cell.sys.Trace(), cell.sys.Space())
	if err != nil {
		return nil, err
	}
	evicts, refaulted := rep.Evictions, rep.Bounced
	t := stats.NewTable("Fig 8: sgemm at 120% of GPU memory - evictions and re-faults",
		"n", "faults", "evictions", "evicted_blocks_refaulted", "refault_pct")
	frac := 0.0
	if evicts > 0 {
		frac = float64(refaulted) / float64(evicts)
	}
	t.AddRow(n, cell.res.Faults, cell.res.Evictions, refaulted, pct(frac))
	return []*stats.Table{t}, nil
}
