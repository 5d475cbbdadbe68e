// Command uvmtrace runs one workload under full instrumentation — span
// tracing, the metrics registry, and per-fault lifecycle tracking — once
// per replay policy, prints a timeline summary with fault-latency
// percentiles, and exports a Chrome trace-event JSON loadable in
// Perfetto or chrome://tracing (one process per policy, one thread per
// driver/DMA/GPU track).
//
// Every run cross-checks the span stream against the driver's phase
// breakdown: the per-phase sums of the emitted spans must equal
// stats.Breakdown exactly, or the command exits nonzero.
//
// Usage:
//
//	uvmtrace -workload regular -footprint 0.5 -o trace.json
//	uvmtrace -workload random -policies batchflush,once -footprint 1.2
//	uvmtrace -workload sgemm -metrics metrics.csv -span-csv spans.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"uvmsim/internal/atomicio"
	"uvmsim/internal/core"
	"uvmsim/internal/driver"
	"uvmsim/internal/govern"
	"uvmsim/internal/multigpu"
	"uvmsim/internal/obs"
	"uvmsim/internal/prof"
	"uvmsim/internal/sim"
	"uvmsim/internal/stats"
	"uvmsim/internal/sweep"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload   = flag.String("workload", "regular", "workload name")
		gpuMB      = flag.Int64("gpu-mem", 96, "GPU framebuffer in MiB")
		footprint  = flag.Float64("footprint", 0.5, "data footprint as a fraction of GPU memory")
		prefetch   = flag.String("prefetch", "none", "prefetch policy")
		policiesF  = flag.String("policies", "block,batch,batchflush,once", "comma-separated replay policies, one traced run each")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		gpus       = flag.Int("gpus", 1, "device count; each GPU gets its own track lane in the exported trace")
		migration  = flag.String("migration", "first-touch", "multi-GPU migration policy (first-touch, access-counter); ignored at 1 GPU")
		traceOut   = flag.String("o", "", "write the combined Chrome trace-event JSON to this file")
		spanCSV    = flag.String("span-csv", "", "write every span as flat CSV to this file")
		metricsOut = flag.String("metrics", "", "write every run's metrics registry as CSV to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the host process to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile of the host process to this file on exit")
	)
	var gf govern.Flags
	gf.Register(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return fail(err)
	}
	defer stopProf()

	var policies []driver.ReplayPolicy
	for _, s := range strings.Split(*policiesF, ",") {
		p, err := driver.ParseReplayPolicy(strings.TrimSpace(s))
		if err != nil {
			return fail(err)
		}
		policies = append(policies, p)
	}
	mpol, err := multigpu.ParsePolicy(*migration)
	if err != nil {
		return fail(err)
	}
	cell := sweep.Cell{
		Workload: *workload, GPUMemoryBytes: *gpuMB << 20, Seed: *seed, Footprint: *footprint,
		Prefetch: *prefetch, Gpus: *gpus, Migration: mpol.String(),
	}

	ctx, stop := gf.Context()
	defer stop()
	gov := governance{cancel: govern.WatchContext(ctx), budget: gf.Budget()}

	collector := obs.NewCollector()
	for _, pol := range policies {
		if err := ctx.Err(); err != nil {
			return failGoverned(err)
		}
		cell.Replay = pol.String()
		if err := traceOne(collector, gov, cell); err != nil {
			return failGoverned(err)
		}
	}

	if *traceOut != "" {
		if err := atomicio.WriteFile(*traceOut, collector.WriteChromeTrace); err != nil {
			return fail(err)
		}
		fmt.Printf("wrote %s (%d cells; load in Perfetto or chrome://tracing)\n", *traceOut, len(collector.Cells()))
	}
	if *spanCSV != "" {
		if err := atomicio.WriteFile(*spanCSV, collector.WriteSpanCSV); err != nil {
			return fail(err)
		}
		fmt.Printf("wrote %s\n", *spanCSV)
	}
	if *metricsOut != "" {
		if err := atomicio.WriteFile(*metricsOut, collector.WriteMetricsCSV); err != nil {
			return fail(err)
		}
		fmt.Printf("wrote %s\n", *metricsOut)
	}
	return 0
}

// governance bundles the cancellation flag and run budget stamped onto
// every traced system.
type governance struct {
	cancel *sim.Cancel
	budget sim.Budget
}

// traceOne runs the cell once with full instrumentation, prints the
// timeline and latency summary, and verifies the span stream against
// the driver's phase breakdown.
func traceOne(collector *obs.Collector, gov governance, cell sweep.Cell) error {
	label := fmt.Sprintf("workload=%s policy=%s footprint=%g seed=%d", cell.Workload, cell.Replay, cell.Footprint, cell.Seed)
	if cell.Gpus > 1 {
		label += fmt.Sprintf(" gpus=%d migration=%s", cell.Gpus, cell.Migration)
	}
	cfg, err := cell.Config()
	if err != nil {
		return err
	}
	cfg.Cancel = gov.cancel
	cfg.Budget = gov.budget
	cfg.Obs = obs.Options{Collector: collector, Label: label, Lifecycle: true}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return err
	}
	k, err := cell.Kernel(sys)
	if err != nil {
		return err
	}
	res, err := sys.RunUVM(k)
	if err != nil {
		return err
	}

	// One capture cell per device: the Chrome trace export gives each
	// device its own process lane, and remote-map spans land on the
	// device that issued the remote access. The reconciliation below runs
	// against the union, since RunResult.Breakdown sums every device.
	cells := sys.ObsCells()
	var spans []obs.Span
	for _, c := range cells {
		spans = append(spans, c.Sink.Spans()...)
	}
	fmt.Printf("%s\n  total=%v faults=%d spans=%d\n", label, res.TotalTime, res.Faults, len(spans))
	if len(cells) > 1 {
		for d, c := range cells {
			fmt.Printf("  [gpu%d lane]\n", d)
			printTimeline(c.Sink.Spans())
		}
	} else {
		printTimeline(spans)
	}
	if err := reconcile(spans, res.Breakdown); err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	fmt.Printf("  span/breakdown reconciliation: ok (driver total %v)\n", res.Breakdown.Total())

	life := sys.Lifecycle()
	if err := life.Final(); err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	born, _, _, replayed, stale, flushed := life.Counts()
	fmt.Printf("  fault lifecycle: born=%d replayed=%d stale=%d flushed=%d\n", born, replayed, stale, flushed)
	for _, l := range []struct {
		name string
		h    *stats.Histogram
	}{
		{"birth_to_fetch", life.BirthToFetch()},
		{"fetch_to_service", life.FetchToService()},
		{"service_to_replay", life.ServiceToReplay()},
		{"birth_to_replay", life.BirthToReplay()},
	} {
		fmt.Printf("  %s\n", obs.LatencyLine(l.name, l.h))
	}
	fmt.Println()
	return nil
}

// printTimeline prints per-kind span counts and summed durations in kind
// declaration order (driver, then DMA, then GPU tracks).
func printTimeline(spans []obs.Span) {
	type agg struct {
		count int
		total sim.Duration
	}
	byKind := map[obs.Kind]agg{}
	for _, s := range spans {
		a := byKind[s.Kind]
		a.count++
		a.total += s.Duration()
		byKind[s.Kind] = a
	}
	kinds := make([]obs.Kind, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		a := byKind[k]
		fmt.Printf("  %-8s %-14s n=%-8d total=%v\n", obs.TrackOf(k), k, a.count, a.total)
	}
}

// reconcile asserts that the driver-phase sums of the span stream equal
// the run's breakdown exactly, phase by phase.
func reconcile(spans []obs.Span, want stats.Breakdown) error {
	got := obs.PhaseTotals(spans)
	for _, p := range stats.Phases() {
		if got.Get(p) != want.Get(p) {
			return fmt.Errorf("span total for %s = %v, breakdown says %v", p, got.Get(p), want.Get(p))
		}
	}
	return nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "uvmtrace:", err)
	return 1
}

// failGoverned classifies err through the governance taxonomy so a
// SIGINT exits 130 and a tripped budget exits 3 instead of a generic 1.
func failGoverned(err error) int {
	st := govern.StatusOf(err)
	fmt.Fprintf(os.Stderr, "uvmtrace: %s: %v\n", st.State, err)
	return govern.ExitCode(st.State)
}
