// Command perfbench measures the host cost of the simulator end to end
// and layer by layer, on two fixed workloads, and checks that the
// simulated outputs it produces are byte-identical to a `-jobs 1`
// sweep of the same cells. Run it from the root of the repository:
//
//	bash perfbench/run.sh --workload sgemm-cells --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 runs traced and reports the per-layer
// metrics. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"

	"uvmsim/internal/sweep"
)

// workload is one benchmark workload. nominalPass is the seconds one
// pass takes on the reference host;
// a run makes seconds/nominalPass passes, so every run of a workload
// does the same work and collects the same number of samples, however
// fast the code is. warmup is the untimed cell each set-up runs; it is
// none of the measured cells.
type workload struct {
	name        string
	nominalPass float64
	specs       func(seed uint64) []*sweep.Spec
	warmup      func(seed uint64) *sweep.Spec
}

var workloadList = []workload{
	{name: "sgemm-cells", nominalPass: 2.4, specs: sgemmSpecs,
		warmup: func(seed uint64) *sweep.Spec { return spec("sgemm", 96, seed, 0.25) }},
	{name: "oversub-cells", nominalPass: 4.7, specs: oversubSpecs,
		warmup: func(seed uint64) *sweep.Spec { return spec("hpgmg", 96, seed, 1.0) }},
}

// setupRepeats is how many times a cell workload sets up in one run;
// setup_s is the process start plus the median set-up.
const setupRepeats = 9

// processStart is the CPU time the process has used when main starts:
// the Go runtime's start-up, plus the few milliseconds of run.sh's
// shell, which execs the binary and so shares its process.
func processStart() time.Duration { return cpuTime() }

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result accumulates one run's metrics and verdict.
type result struct {
	metrics   map[string]metricVal
	attempted int
	failed    int
	problems  []string
}

func newResult() *result { return &result{metrics: map[string]metricVal{}} }

// put records a metric and prints it on its own line with its note
// (sample count, percentile used).
func (r *result) put(name, unit string, v float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metricVal{Value: v, Unit: unit}
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("metric %-32s %14.6f %-8s%s\n", name, v, unit, note)
}

// timing records a median or tail timing with its sample count.
func (r *result) timing(name, unit string, xs []float64, pct float64) {
	if pct == 50 {
		r.put(name, unit, median(xs), fmt.Sprintf("median, n=%d", len(xs)))
		return
	}
	v, used, beyond := tail(xs, pct)
	r.put(name, unit, v, fmt.Sprintf("p%.1f, n=%d, %d beyond", used, len(xs), beyond))
}

// mismatch counts n failed operations and remembers why.
func (r *result) mismatch(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: sgemm-cells or oversub-cells")
		seed    = flag.Uint64("seed", defaultSeed, "input seed")
		seconds = flag.Int("seconds", 30, "measured seconds (sets the fixed pass count)")
		traceF  = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	)
	flag.Parse()
	var wl *workload
	for i := range workloadList {
		if workloadList[i].name == *name {
			wl = &workloadList[i]
		}
	}
	switch {
	case wl == nil:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *seconds < 1:
		fmt.Fprintf(os.Stderr, "perfbench: --seconds %d must be at least 1\n", *seconds)
		return 2
	case *traceF != 0 && *traceF != 1:
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	startup := processStart()
	passes := max(2, int(math.Round(float64(*seconds)/wl.nominalPass)))
	fmt.Println("host", fingerprint())
	fmt.Printf("run workload=%s seed=%d seconds=%d passes=%d trace=%d\n", wl.name, *seed, *seconds, passes, *traceF)

	ctx := context.Background()
	var r *result
	var err error
	r, err = runCells(ctx, wl, *seed, passes, *traceF == 1, startup)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	want := e2eMetrics
	if *traceF == 1 {
		want = layerMetrics
	}
	for _, m := range want {
		if _, ok := r.metrics[m.name]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", m.name)
			return 1
		}
	}
	for _, p := range r.problems {
		fmt.Println("MISMATCH", p)
	}
	correct := r.failed == 0
	r.failed = min(r.failed, r.attempted) // one cell can fail several checks
	fmt.Printf("verdict correct=%v attempted=%d failed=%d error_rate=%g\n",
		correct, r.attempted, r.failed, frac(float64(r.failed), float64(r.attempted)))
	out, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricVal `json:"metrics"`
	}{correct, r.attempted, r.failed, onlyNamed(r.metrics, want)})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}

type metricDef struct{ name, unit string }

// e2eMetrics are reported with --trace 0; BENCHMARK.json lists the same.
var e2eMetrics = []metricDef{
	{"setup_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MiB"}, {"alloc_mb", "MiB"},
	{"cell_ms_p50", "ms"}, {"cell_ms_p90", "ms"},
}

// layerMetrics are reported with --trace 1; BENCHMARK.json lists the same.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"workloads.build_ms", "ms"}, {"workloads.alloc_mb", "MiB"},
		{"core.new_system_ms", "ms"}, {"core.run_uvm_ms", "ms"}, {"core.run_alloc_mb", "MiB"}, {"core.sim_ns_per_wall_ns", "ratio"},
		{"sim.events", "count"}, {"sim.events_per_s", "1/s"},
		{"gpusim.accesses", "count"}, {"gpusim.faults_raised", "count"}, {"gpusim.faults_coalesced", "count"}, {"gpusim.coalesce_frac", "fraction"},
		{"driver.batches", "count"}, {"driver.faults_fetched", "count"}, {"driver.faults_deduped", "count"}, {"driver.dedup_frac", "fraction"},
		{"driver.replays", "count"}, {"driver.flush_discarded", "count"}, {"driver.host_ns_per_fault", "ns"},
		{"prefetch.prefetched_pages", "count"}, {"prefetch.demand_pages", "count"}, {"prefetch.share_frac", "fraction"},
		{"evict.evictions", "count"}, {"evict.evicted_pages", "count"},
		{"xfer.h2d_mb", "MiB"}, {"xfer.d2h_mb", "MiB"},
		{"multigpu.remote_accesses", "count"}, {"multigpu.migrations", "count"}, {"multigpu.migrations_aborted", "count"}, {"multigpu.invalidations", "count"},
		{"sweep.cell_overhead_ms", "ms"},
		{"serve.hit_ms_p50", "ms"}, {"serve.miss_ms_p50", "ms"}, {"serve.cachefill_ms_p50", "ms"},
		{"serve.cache_hits", "count"}, {"serve.cache_misses", "count"}, {"serve.coalesced", "count"}, {"serve.rejected", "count"},
		{"dist.lease_ms_p50", "ms"}, {"dist.complete_ms_p50", "ms"}, {"dist.leases_granted", "count"}, {"dist.retries", "count"}, {"dist.regrant_frac", "fraction"},
		{"cachetier.lookup_ms_p50", "ms"}, {"cachetier.wait_ms_p50", "ms"}, {"cachetier.hits", "count"}, {"cachetier.misses", "count"},
		{"cachetier.hit_frac", "fraction"}, {"cachetier.failovers", "count"}, {"cachetier.fills", "count"}, {"cachetier.fill_errors", "count"},
	}
	for _, b := range profBuckets {
		defs = append(defs, metricDef{"prof." + b + "_pct", "%"})
	}
	return append(defs,
		metricDef{"trace.overhead_frac", "fraction"},
		metricDef{"layersum.cell_remainder_frac", "fraction"},
		metricDef{"layersum.fleet_remainder_frac", "fraction"},
	)
}()

func onlyNamed(all map[string]metricVal, defs []metricDef) map[string]metricVal {
	out := make(map[string]metricVal, len(defs))
	for _, d := range defs {
		out[d.name] = all[d.name]
	}
	return out
}

// cpuTime is the CPU time the process has used so far, user plus
// system, over all its threads. The kernel leaves out time the host
// took the virtual CPU away (steal), which wall time includes.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func toSeconds(xs []time.Duration) []float64 {
	out := make([]float64, len(xs))
	for i, d := range xs {
		out[i] = d.Seconds()
	}
	return out
}

// countsText renders exact counts as sorted name=value lines; its
// digest is what the default seed's recorded counts are compared to.
func countsText(counts map[string]uint64) string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%d\n", k, counts[k])
	}
	return sb.String()
}
