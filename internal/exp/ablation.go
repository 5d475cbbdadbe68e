package exp

import (
	"fmt"

	"uvmsim/internal/driver"
	"uvmsim/internal/stats"
)

// AblationReplayPolicy compares all four replay policies (§III-E) on the
// synthetic kernels: Block resumes earliest but replays most; BatchFlush
// (the default) trades flush cost for fewer duplicates; Once minimizes
// replays at the price of stall latency.
func AblationReplayPolicy(sc Scale) ([]*stats.Table, error) {
	bytes := sc.GPUMemoryBytes / 4
	t := stats.NewTable("Ablation: replay policies (prefetch off)",
		"pattern", "policy", "total_ms", "replays", "faults", "dup_faults",
		"preprocess_us", "replay_us", "stall_ms", "stall_p50_us", "stall_p99_us")
	policies := []driver.ReplayPolicy{
		driver.ReplayBlock, driver.ReplayBatch, driver.ReplayBatchFlush, driver.ReplayOnce,
	}
	patterns := []string{"regular", "random"}
	if sc.Quick {
		patterns = []string{"regular"}
	}
	q := sc.newQueue()
	for _, pattern := range patterns {
		for _, pol := range policies {
			label := fmt.Sprintf("abl-policy pattern=%s policy=%s seed=%d", pattern, pol, sc.Seed)
			q.add(label,
				func() (func(), error) {
					cfg := sc.sysConfig()
					cfg.PrefetchPolicy = "none"
					cfg.Driver.Policy = pol
					cell, err := runWorkloadCell(sc, label, cfg, pattern, bytes, sc.params())
					if err != nil {
						return nil, fmt.Errorf("abl-policy %s/%s: %w", pattern, pol, err)
					}
					return func() {
						hist := cell.sys.GPU().StallHistogram()
						t.AddRow(pattern, pol.String(), ms(cell.res.TotalTime),
							cell.res.GPU.Replays, cell.res.Faults,
							cell.res.Counters.Get("faults_deduped"),
							us(cell.res.Breakdown.Get(stats.PhasePreprocess)),
							us(cell.res.Breakdown.Get(stats.PhaseReplay)),
							ms(cell.res.GPU.StallTime),
							us(hist.Quantile(0.5)), us(hist.Quantile(0.99)))
					}, nil
				})
		}
	}
	if err := q.run(); err != nil {
		return nil, err
	}
	return []*stats.Table{t}, nil
}

// AblationThreshold sweeps the density threshold. §IV-C reports that a 1%
// threshold "rivals the performance of an explicit direct transfer" for
// undersubscribed workloads.
func AblationThreshold(sc Scale) ([]*stats.Table, error) {
	bytes := sc.GPUMemoryBytes / 2
	t := stats.NewTable("Ablation: density threshold sweep (undersubscribed)",
		"workload", "threshold", "total_ms", "faults", "prefetched_pages")
	thresholds := []int{1, 25, 51, 75, 99}
	if sc.Quick {
		thresholds = []int{1, 51}
	}
	names := []string{"regular", "stream"}
	if sc.Quick {
		names = []string{"regular"}
	}
	q := sc.newQueue()
	for _, name := range names {
		for _, th := range thresholds {
			label := fmt.Sprintf("abl-thresh workload=%s threshold=%d seed=%d", name, th, sc.Seed)
			q.add(label,
				func() (func(), error) {
					cfg := sc.sysConfig()
					cfg.PrefetchPolicy = fmt.Sprintf("density:%d", th)
					cell, err := runWorkloadCell(sc, label, cfg, name, bytes, sc.params())
					if err != nil {
						return nil, fmt.Errorf("abl-thresh %s/%d: %w", name, th, err)
					}
					return func() {
						t.AddRow(name, th, ms(cell.res.TotalTime), cell.res.Faults,
							cell.res.Counters.Get("prefetched_pages"))
					}, nil
				})
		}
	}
	if err := q.run(); err != nil {
		return nil, err
	}
	return []*stats.Table{t}, nil
}

// AblationBatchSize sweeps the fault batch size (§III-D: larger batches
// coalesce better but delay SMs).
func AblationBatchSize(sc Scale) ([]*stats.Table, error) {
	bytes := sc.GPUMemoryBytes / 4
	t := stats.NewTable("Ablation: fault batch size (prefetch off)",
		"pattern", "batch", "total_ms", "batches", "faults", "stall_ms")
	sizes := []int{32, 64, 128, 256, 512, 1024}
	if sc.Quick {
		sizes = []int{64, 256}
	}
	q := sc.newQueue()
	for _, pattern := range []string{"regular", "random"} {
		for _, bs := range sizes {
			label := fmt.Sprintf("abl-batch pattern=%s batch=%d seed=%d", pattern, bs, sc.Seed)
			q.add(label,
				func() (func(), error) {
					cfg := sc.sysConfig()
					cfg.PrefetchPolicy = "none"
					cfg.Driver.BatchSize = bs
					cell, err := runWorkloadCell(sc, label, cfg, pattern, bytes, sc.params())
					if err != nil {
						return nil, fmt.Errorf("abl-batch %s/%d: %w", pattern, bs, err)
					}
					return func() {
						t.AddRow(pattern, bs, ms(cell.res.TotalTime),
							cell.res.Counters.Get("batches"), cell.res.Faults,
							ms(cell.res.GPU.StallTime))
					}, nil
				})
		}
		if sc.Quick {
			break
		}
	}
	if err := q.run(); err != nil {
		return nil, err
	}
	return []*stats.Table{t}, nil
}

// AblationEviction compares eviction policies on oversubscribed
// workloads: the §VI-B access-counter-aware policy that fixes fault-only
// LRU's hot-data starvation, and the thrash-pinning extension modeled on
// the production driver's uvm_perf_thrashing.
func AblationEviction(sc Scale) ([]*stats.Table, error) {
	t := stats.NewTable("Ablation: eviction policy, oversubscribed",
		"workload", "policy", "total_ms", "faults", "evictions", "evicted_pages", "d2h_mb")
	policies := []string{"lru", "fifo", "random", "access-aware", "lru+thrash"}
	if sc.Quick {
		policies = []string{"lru", "access-aware", "lru+thrash"}
	}
	type wl struct {
		name string
		frac float64
	}
	wls := []wl{{"sgemm", 1.25}, {"tealeaf", 1.3}, {"hotcold", 1.3}}
	if sc.Quick {
		wls = wls[:1]
	}
	q := sc.newQueue()
	for _, w := range wls {
		for _, pol := range policies {
			label := fmt.Sprintf("abl-evict workload=%s policy=%s seed=%d", w.name, pol, sc.Seed)
			q.add(label,
				func() (func(), error) {
					cfg := sc.sysConfig()
					cfg.EvictPolicy = pol
					var cell *cellResult
					var err error
					if w.name == "sgemm" {
						cell, err = runSGEMMWithConfig(sc, label, cfg, sgemmN(sc, w.frac))
					} else {
						cell, err = runWorkloadCell(sc, label, cfg, w.name, int64(w.frac*float64(sc.GPUMemoryBytes)), sc.params())
					}
					if err != nil {
						return nil, fmt.Errorf("abl-evict %s/%s: %w", w.name, pol, err)
					}
					return func() {
						t.AddRow(w.name, pol, ms(cell.res.TotalTime), cell.res.Faults, cell.res.Evictions,
							cell.res.Counters.Get("evicted_pages"), mb(cell.res.BytesD2H))
					}, nil
				})
		}
	}
	if err := q.run(); err != nil {
		return nil, err
	}
	return []*stats.Table{t}, nil
}

// AblationGranularity sweeps the VABlock size (§VI-B flexible memory
// allocation granularity) on oversubscribed random access, where 2 MB
// blocks waste the most memory.
func AblationGranularity(sc Scale) ([]*stats.Table, error) {
	bytes := int64(1.25 * float64(sc.GPUMemoryBytes))
	t := stats.NewTable("Ablation: VABlock granularity on oversubscribed random access",
		"vablock_kb", "total_ms", "faults", "evictions", "h2d_mb", "d2h_mb")
	sizes := []int64{64 << 10, 256 << 10, 1 << 20, 2 << 20}
	if sc.Quick {
		sizes = []int64{256 << 10, 2 << 20}
	}
	q := sc.newQueue()
	for _, vb := range sizes {
		label := fmt.Sprintf("abl-gran vablock=%d seed=%d", vb, sc.Seed)
		q.add(label, func() (func(), error) {
			cfg := sc.sysConfig()
			cfg.VABlockSize = vb
			cell, err := runWorkloadCell(sc, label, cfg, "random", bytes, sc.params())
			if err != nil {
				return nil, fmt.Errorf("abl-gran %d: %w", vb, err)
			}
			return func() {
				t.AddRow(vb/1024, ms(cell.res.TotalTime), cell.res.Faults, cell.res.Evictions,
					mb(cell.res.BytesH2D), mb(cell.res.BytesD2H))
			}, nil
		})
	}
	if err := q.run(); err != nil {
		return nil, err
	}
	return []*stats.Table{t}, nil
}

// AblationAdaptive evaluates the §VI-B adaptive prefetcher: aggressive
// while undersubscribed, demand-only under eviction pressure — against
// the static density default and disabled prefetching, on both sides of
// the memory limit.
func AblationAdaptive(sc Scale) ([]*stats.Table, error) {
	t := stats.NewTable("Ablation: adaptive prefetching across the memory limit",
		"pattern", "footprint_pct", "prefetcher", "total_ms", "faults", "evictions", "h2d_mb")
	fractions := []float64{0.5, 1.25}
	prefetchers := []string{"none", "density", "adaptive"}
	patterns := []string{"regular", "random"}
	if sc.Quick {
		patterns = []string{"random"}
	}
	q := sc.newQueue()
	for _, pattern := range patterns {
		for _, f := range fractions {
			for _, pf := range prefetchers {
				label := fmt.Sprintf("abl-adapt pattern=%s footprint=%.2f prefetch=%s seed=%d", pattern, f, pf, sc.Seed)
				q.add(label,
					func() (func(), error) {
						cfg := sc.sysConfig()
						cfg.PrefetchPolicy = pf
						bytes := int64(f * float64(sc.GPUMemoryBytes))
						cell, err := runWorkloadCell(sc, label, cfg, pattern, bytes, sc.params())
						if err != nil {
							return nil, fmt.Errorf("abl-adapt %s/%.2f/%s: %w", pattern, f, pf, err)
						}
						return func() {
							t.AddRow(pattern, pct(f), pf, ms(cell.res.TotalTime),
								cell.res.Faults, cell.res.Evictions, mb(cell.res.BytesH2D))
						}, nil
					})
			}
		}
	}
	if err := q.run(); err != nil {
		return nil, err
	}
	return []*stats.Table{t}, nil
}
