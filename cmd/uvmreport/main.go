// Command uvmreport runs one cell with tracing enabled and explains it.
// By default it prints a deep workload analysis to stdout: the run's
// totals, the driver-phase breakdown, derived locality metrics,
// per-range activity, hot blocks, and an ASCII rendering of the paper's
// Fig. 7/8 access-pattern scatter (faults as dots, evictions as E
// marks). -csv writes the scatter data itself instead (columns
// seq,time_ns,kind,page_index,block,range; plot page_index against row
// order to reproduce the figures), with its "# ..." summary on stderr.
//
// The cell is either a named workload at a footprint, or an externally
// captured page trace (-access-trace: a two-column "page_index,rw" CSV
// or a -csv export) replayed against the configured driver. -progress
// prints a live status line to stderr while the cell runs — the loupe
// for pathological configurations (thrash storms, livelocks,
// starvation) — and -events streams warp-level execution events there.
//
// Usage:
//
//	uvmreport -workload random
//	uvmreport -workload sgemm -footprint 1.2
//	uvmreport -workload tealeaf -prefetch none -width 100 -height 24
//	uvmreport -workload random -footprint 0.25 -prefetch none -csv > random.csv   # Fig 7 panel
//	uvmreport -workload sgemm -footprint 1.2 -csv > sgemm_oversub.csv             # Fig 8
//	uvmreport -access-trace random.csv -prefetch none -evict access-aware
//	uvmreport -workload random -footprint 1.25 -prefetch none -progress 1s
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"uvmsim/internal/analyze"
	"uvmsim/internal/core"
	"uvmsim/internal/govern"
	"uvmsim/internal/gpusim"
	"uvmsim/internal/mem"
	"uvmsim/internal/plot"
	"uvmsim/internal/sim"
	"uvmsim/internal/sweep"
	"uvmsim/internal/trace"
	"uvmsim/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole command on its own flag set and streams, so tests
// drive it in-process.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("uvmreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload    = fs.String("workload", "regular", "workload name")
		gpuMB       = fs.Int64("gpu-mem", 96, "GPU framebuffer in MiB")
		footprint   = fs.Float64("footprint", 0.5, "data footprint as a fraction of GPU memory")
		accessTrace = fs.String("access-trace", "", "replay this page trace (page_index,rw CSV or a -csv export; - for stdin) instead of building -workload at -footprint")
		prefetch    = fs.String("prefetch", "density", "prefetch policy (Fig 7 uses none)")
		evictPol    = fs.String("evict", "lru", "eviction policy")
		replayPol   = fs.String("replay", "batchflush", "replay policy")
		seed        = fs.Uint64("seed", 1, "simulation seed")
		csv         = fs.Bool("csv", false, "write the Fig 7/8 scatter CSV to stdout instead of the report")
		stride      = fs.Int("stride", 1, "with -csv, downsample fault/prefetch rows by this stride (evictions always kept)")
		width       = fs.Int("width", 78, "chart width")
		height      = fs.Int("height", 20, "chart height")
		noChart     = fs.Bool("no-chart", false, "skip the ASCII scatter")
		counters    = fs.Bool("counters", true, "print the driver event counters")
		progress    = fs.Duration("progress", 0, "print a status line to stderr at this host-time interval, and a final done: line (0 = off)")
		events      = fs.Bool("events", false, "stream warp-level events to stderr (very verbose)")
	)
	var gf govern.Flags
	gf.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fatal := func(err error) int {
		// The governance taxonomy: a SIGINT exits 130 and a tripped
		// budget exits 3 instead of a generic 1.
		st := govern.StatusOf(err)
		fmt.Fprintf(stderr, "uvmreport: %s: %v\n", st.State, err)
		return govern.ExitCode(st.State)
	}

	ctx, stop := gf.Context()
	defer stop()

	cell := sweep.Cell{
		Workload: *workload, GPUMemoryBytes: *gpuMB << 20, Seed: *seed,
		Footprint: *footprint, Prefetch: *prefetch, Evict: *evictPol, Replay: *replayPol,
	}
	cfg, err := cell.Config()
	if err != nil {
		return fatal(err)
	}
	cfg.TraceCapacity = -1
	cfg.Cancel = govern.WatchContext(ctx)
	cfg.Budget = gf.Budget()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return fatal(err)
	}
	if *events {
		gpusim.SetDebugLog(func(f string, a ...interface{}) { fmt.Fprintf(stderr, f+"\n", a...) })
		defer gpusim.SetDebugLog(nil)
	}

	// name and frac label the CSV summary; header opens the report.
	name, frac := *workload, *footprint
	var k *gpusim.Kernel
	var header string
	if *accessTrace != "" {
		accesses, err := readTrace(*accessTrace, stdin)
		if err != nil {
			return fatal(err)
		}
		if k, err = workloads.Replay(sys, accesses, cell.Params()); err != nil {
			return fatal(err)
		}
		pages := sys.Space().TotalPages()
		name, frac = "replay", float64(mem.Bytes(pages))/float64(cell.GPUMemoryBytes)
		header = fmt.Sprintf("replayed %d accesses over %d pages (%.1f MiB) on a %d MiB GPU",
			len(accesses), pages, float64(pages)*4/1024, *gpuMB)
	} else {
		if k, err = cell.Kernel(sys); err != nil {
			return fatal(err)
		}
		header = fmt.Sprintf("%s: %.0f%% of %d MiB GPU, prefetch=%s, evict=%s",
			*workload, *footprint*100, *gpuMB, *prefetch, *evictPol)
	}

	stopSampling := func() {}
	if *progress > 0 {
		// The ticker only requests a sample; the engine answers it on
		// this goroutine between events, so the status line reads the
		// model without racing the run.
		cfg.Cancel.OnSample(func() { fmt.Fprintln(stderr, status(sys)) })
		stopSampling = sampleEvery(cfg.Cancel, *progress)
	}
	res, err := sys.RunUVM(k)
	stopSampling()
	if err != nil {
		return fatal(err)
	}
	if *progress > 0 {
		stall := sys.GPU().StallHistogram()
		fmt.Fprintf(stderr, "done: time=%v faults=%d evictions=%d h2d=%.1fMB d2h=%.1fMB stall=%v (p50=%v p99=%v)\n",
			res.TotalTime, res.Faults, res.Evictions,
			float64(res.BytesH2D)/(1<<20), float64(res.BytesD2H)/(1<<20),
			res.GPU.StallTime, stall.Quantile(0.5), stall.Quantile(0.99))
	}

	if *csv {
		comp := trace.NewCompressor(sys.Space())
		fmt.Fprintf(stderr, "# %s footprint=%.0f%% faults=%d evictions=%d time=%v\n",
			name, frac*100, res.Faults, res.Evictions, res.TotalTime)
		for i, b := range comp.RangeBoundaries() {
			fmt.Fprintf(stderr, "# range %d (%s) starts at page_index %d\n",
				i, sys.Space().Ranges()[i].Label, b)
		}
		if err := sys.Trace().WriteCSV(stdout, comp, *stride); err != nil {
			return fatal(err)
		}
		return govern.ExitOK
	}

	fmt.Fprintln(stdout, header)
	fmt.Fprintf(stdout, "total=%v faults=%d evictions=%d h2d=%.1fMB d2h=%.1fMB\n",
		res.TotalTime, res.Faults, res.Evictions,
		float64(res.BytesH2D)/(1<<20), float64(res.BytesD2H)/(1<<20))
	fmt.Fprintf(stdout, "breakdown: %s\n\n", res.Breakdown.String())

	if *counters {
		// The driver's metrics registry in name order: event counters
		// (including the fault-buffer health accounting — overflow a report
		// would otherwise silently absorb), gauges, and the batch-shape
		// histograms with their percentiles.
		fmt.Fprintln(stdout, "driver metrics:")
		for _, s := range sys.Metrics().Samples() {
			if s.Hist != nil {
				fmt.Fprintf(stdout, "  %-26s n=%-8d mean=%-10v p50=%-10v p99=%-10v max=%v\n",
					s.Name, s.Hist.Count(), s.Hist.Mean(),
					s.Hist.Quantile(0.5), s.Hist.Quantile(0.99), s.Hist.Max())
				continue
			}
			fmt.Fprintf(stdout, "  %-26s %d\n", s.Name, s.Value)
		}
		fmt.Fprintln(stdout)
	}

	rep, err := analyze.Analyze(sys.Trace(), sys.Space())
	if err != nil {
		return fatal(err)
	}
	if err := rep.Table("workload analysis").WriteText(stdout); err != nil {
		return fatal(err)
	}
	fmt.Fprintln(stdout)
	if err := rep.RangeTable().WriteText(stdout); err != nil {
		return fatal(err)
	}

	hot := analyze.HotBlocks(sys.Trace(), 5)
	if len(hot) > 0 {
		fmt.Fprintln(stdout, "\nhottest VABlocks by fault count:")
		for _, h := range hot {
			fmt.Fprintf(stdout, "  block %-6d %d faults\n", h.Block, h.Faults)
		}
	}

	if !*noChart {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, scatter(sys, *width, *height))
	}
	return govern.ExitOK
}

// readTrace parses the page trace at path, or stdin for "-".
func readTrace(path string, stdin io.Reader) ([]workloads.TraceAccess, error) {
	if path == "-" {
		return workloads.ParseTrace(stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return workloads.ParseTrace(f)
}

// sampleEvery requests a sample from c every d of host time until the
// returned stop function is called; stop returns once the ticker
// goroutine has exited.
func sampleEvery(c *sim.Cancel, d time.Duration) (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(d)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				c.RequestSample()
			}
		}
	}()
	return func() { close(done); <-exited }
}

// status is the -progress line: simulated clock, engine and residency
// progress, and the GPU's stall-side counters.
func status(sys *core.System) string {
	gs := sys.GPU().Stats()
	c := sys.Driver().Counters()
	return fmt.Sprintf("sim=%v events=%d resident=%d faults=%d evictions=%d blocked=%d accesses=%d throttled=%d replays=%d",
		sys.Engine().Now(), sys.Engine().Executed(), sys.ResidentPages(),
		c.Get("faults_fetched"), c.Get("evictions"),
		sys.GPU().BlockedWarps(), gs.Accesses, gs.FaultsThrottled, gs.Replays)
}

// scatter renders the Fig. 7/8-style access pattern: fault occurrence
// order on x, gap-free page index on y, evictions overlaid as E.
func scatter(sys *core.System, w, h int) string {
	comp := trace.NewCompressor(sys.Space())
	var fx, fy, ex, ey []float64
	n := 0
	for _, e := range sys.Trace().Events() {
		idx := comp.Index(e.Page)
		if idx < 0 {
			continue
		}
		switch e.Kind {
		case trace.KindFault:
			fx = append(fx, float64(n))
			fy = append(fy, float64(idx))
			n++
		case trace.KindEvict:
			ex = append(ex, float64(n))
			ey = append(ey, float64(idx))
		}
	}
	c := plot.NewCanvas(w, h).
		Title("access pattern (x = fault occurrence, y = page index, E = eviction)").
		Labels("fault occurrence", "page")
	c.SetScale(0, float64(maxInt(n-1, 1)), 0, float64(comp.Total()-1))
	c.Scatter(fx, fy, '.')
	c.Scatter(ex, ey, 'E')
	return c.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
