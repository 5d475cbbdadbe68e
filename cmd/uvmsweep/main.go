// Command uvmsweep runs a generic parameter sweep: one workload crossed
// with any combination of prefetch policy, density threshold, replay
// policy, eviction policy, batch size, VABlock granularity, and footprint
// fraction, printing one row per configuration.
//
// Every flag combination is validated before anything runs, so a typo in
// the last policy name fails instantly instead of after earlier configs
// have simulated. Independent configurations fan out across -jobs worker
// goroutines (default: all CPUs); the output is byte-identical at every
// -jobs value, and -jobs 1 is the strictly serial path.
//
// Distributed mode (-listen / -workers) turns the process into the
// sweep fabric's coordinator instead of running cells in-process: cells
// are leased to stateless uvmworker processes with heartbeat-renewed
// deadlines, dead workers' cells are reassigned with capped backoff, a
// per-cell retry budget quarantines poison cells, completions are
// deduplicated by confighash, and the merged table is byte-identical to
// a single-process run. With -journal the coordinator itself is
// crash-tolerant: -resume replays completed cells from disk.
//
// Usage:
//
//	uvmsweep -workload random -footprints 0.5,1.25 -prefetch none,density,adaptive
//	uvmsweep -workload sgemm -footprints 0.9,1.2,1.5 -evict lru,access-aware
//	uvmsweep -workload stream -batch 64,256,1024 -replay batch,batchflush -jobs 8
//	uvmsweep -workload random -footprints 0.5,1.0 -workers 3          # spawn 3 local workers
//	uvmsweep -workload random -footprints 0.5,1.0 -listen :9933       # external workers attach
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"uvmsim/internal/atomicio"
	"uvmsim/internal/cachetier"
	"uvmsim/internal/dist"
	"uvmsim/internal/govern"
	"uvmsim/internal/obs"
	"uvmsim/internal/prof"
	"uvmsim/internal/sweep"
	"uvmsim/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload   = flag.String("workload", "regular", "workload name")
		gpuMB      = flag.Int64("gpu-mem", 96, "GPU framebuffer in MiB")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		footprints = flag.String("footprints", "0.5", "comma-separated data footprints as fractions of GPU memory")
		prefetch   = flag.String("prefetch", "density", "comma-separated prefetch policies")
		replay     = flag.String("replay", "batchflush", "comma-separated replay policies")
		evictPol   = flag.String("evict", "lru", "comma-separated eviction policies")
		batch      = flag.String("batch", "256", "comma-separated fault batch sizes")
		vablock    = flag.String("vablock", "2048", "comma-separated VABlock sizes in KiB")
		gpus       = flag.String("gpus", "1", "comma-separated GPU counts (multi-GPU cells add gpus=/migration= to their labels)")
		migration  = flag.String("migration", "first-touch", "comma-separated multi-GPU migration policies (first-touch, access-counter); ignored at 1 GPU")
		jobs       = flag.Int("jobs", 0, "worker goroutines fanning configs out (0 = all CPUs, 1 = serial)")
		csvOut     = flag.Bool("csv", false, "emit CSV")
		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON with one process per sweep cell (load in Perfetto)")
		metricsOut = flag.String("metrics", "", "write every cell's metrics registry as CSV to this file")
		journalF   = flag.String("journal", "", "append every cell's outcome to this crash-safe JSONL journal")
		resume     = flag.Bool("resume", false, "replay -journal before running: completed cells are skipped, unfinished cells run")
		retries    = flag.Int("retries", 0, "retries per transiently-failed cell (bounded exponential backoff)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the host process to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile of the host process to this file on exit")

		listen      = flag.String("listen", "", "coordinator mode: serve sweep cells to uvmworker processes at this address instead of running in-process")
		workers     = flag.Int("workers", 0, "coordinator mode: spawn this many local uvmworker processes (implies -listen 127.0.0.1:0 when unset)")
		workerBin   = flag.String("worker-bin", "", "uvmworker binary for -workers (default: uvmworker next to this executable)")
		leaseTTL    = flag.Duration("lease-ttl", 15*time.Second, "coordinator mode: lease deadline between worker heartbeats")
		cellRetries = flag.Int("cell-retries", 3, "coordinator mode: lease re-grants per cell (expiry or failure) before quarantine")
		linger      = flag.Duration("linger", 2*time.Second, "coordinator mode: how long to keep answering done to workers after the sweep settles")
		cacheTier   = flag.String("cache-tier", "", "coordinator mode: comma-separated uvmserved node URLs; completed rows are write-through filled to their owning node")
	)
	var gf govern.Flags
	gf.Register(flag.CommandLine)
	var tf telemetry.Flags
	tf.Register()
	flag.Parse()

	if *resume && *journalF == "" {
		fmt.Fprintln(os.Stderr, "uvmsweep: -resume requires -journal")
		return govern.ExitUsage
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return fail(err)
	}
	defer stopProf()

	fps, err := parseFloats(*footprints)
	if err != nil {
		return fail(err)
	}
	batches, err := parseInts(*batch)
	if err != nil {
		return fail(err)
	}
	vablocks, err := parseInts(*vablock)
	if err != nil {
		return fail(err)
	}
	vbBytes := make([]int64, len(vablocks))
	for i, vb := range vablocks {
		vbBytes[i] = int64(vb) << 10
	}
	gpuCounts, err := parseInts(*gpus)
	if err != nil {
		return fail(err)
	}

	s := &sweep.Spec{
		Workload:       *workload,
		GPUMemoryBytes: *gpuMB << 20,
		Seed:           *seed,
		Footprints:     fps,
		Prefetch:       splitList(*prefetch),
		Replay:         splitList(*replay),
		Evict:          splitList(*evictPol),
		Batch:          batches,
		VABlock:        vbBytes,
		GPUs:           gpuCounts,
		Migration:      splitList(*migration),
		Jobs:           *jobs,
		Budget:         gf.Budget(),
		Retries:        *retries,
		Journal:        *journalF,
		Resume:         *resume,
	}
	distMode := *listen != "" || *workers > 0
	if *traceOut != "" || *metricsOut != "" {
		if distMode {
			return fail(fmt.Errorf("-trace/-metrics are per-cell observability exports and need in-process cells; they are not supported in coordinator mode"))
		}
		s.Obs = obs.NewCollector()
		s.Lifecycle = true
	}
	// Fail fast: reject any bad name or bound before a single cell runs.
	if err := s.Validate(); err != nil {
		return fail(err)
	}

	flight := tf.Flight()
	lg := tf.Logger("uvmsweep", flight)
	defer telemetry.ArmGovern(flight, tf.FlightDir, lg)()

	ctx, stop := gf.Context()
	defer stop()

	if distMode {
		return runDist(ctx, s, distOptions{
			listen: *listen, workers: *workers, workerBin: *workerBin,
			leaseTTL: *leaseTTL, cellRetries: *cellRetries, linger: *linger,
			journal: *journalF, resume: *resume, csv: *csvOut,
			cacheTier: *cacheTier,
			log:       lg, flight: flight, flightDir: tf.FlightDir,
		})
	}

	res, runErr := s.RunContext(ctx)
	// Flush everything that finished even when the sweep was stopped: the
	// journal already holds the cell outcomes, and partial artifacts are
	// what -resume builds on.
	if res != nil {
		if err := flush(res, s, *csvOut, *traceOut, *metricsOut); err != nil {
			return fail(err)
		}
	}
	if runErr != nil {
		st := govern.StatusOf(runErr)
		fmt.Fprintf(os.Stderr, "uvmsweep: %s: %v\n", st.State, runErr)
		if st.State == govern.StateCancelled && *journalF != "" {
			fmt.Fprintf(os.Stderr, "uvmsweep: resume with: -resume -journal %s\n", *journalF)
		}
		return govern.ExitCode(st.State)
	}
	counts := res.Counts()
	if n := counts[govern.StateDeadline] + counts[govern.StateLivelock]; n > 0 {
		fmt.Fprintf(os.Stderr, "uvmsweep: %d cells stopped by budget (deadline=%d livelock=%d)\n",
			n, counts[govern.StateDeadline], counts[govern.StateLivelock])
		return govern.ExitBudget
	}
	return govern.ExitOK
}

// flush writes the result table to stdout and the observability exports
// to their files atomically, restricting exports to completed cells so
// partial captures from stopped or retried attempts never pollute them.
func flush(res *sweep.Result, s *sweep.Spec, csvOut bool, traceOut, metricsOut string) error {
	var err error
	if csvOut {
		err = res.Table.WriteCSV(os.Stdout)
	} else {
		err = res.Table.WriteText(os.Stdout)
	}
	if err != nil {
		return err
	}
	if res.Reused > 0 || res.Skipped > 0 {
		fmt.Fprintf(os.Stderr, "# %d cells reused from journal, %d skipped\n", res.Reused, res.Skipped)
	}
	if s.Obs == nil {
		return nil
	}
	done := s.Obs.Filter(func(c *obs.Cell) bool {
		return c.Status() == string(govern.StateCompleted)
	})
	if traceOut != "" {
		if err := atomicio.WriteFile(traceOut, done.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "# wrote %s (%d cells)\n", traceOut, len(done.Cells()))
	}
	if metricsOut != "" {
		if err := atomicio.WriteFile(metricsOut, done.WriteMetricsCSV); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "# wrote %s\n", metricsOut)
	}
	return nil
}

// distOptions carries the coordinator-mode knobs.
type distOptions struct {
	listen, workerBin, journal string
	workers, cellRetries       int
	leaseTTL, linger           time.Duration
	resume, csv                bool
	cacheTier                  string
	log                        *slog.Logger
	flight                     *telemetry.Flight
	flightDir                  string
}

// runDist runs the sweep as the distributed fabric's coordinator:
// serve leases to workers, wait for every cell to settle, then print
// the merged table — byte-identical to the in-process path.
func runDist(ctx context.Context, s *sweep.Spec, o distOptions) int {
	cfg := dist.CoordinatorConfig{
		LeaseTTL:    o.leaseTTL,
		RetryBudget: o.cellRetries,
		Journal:     o.journal,
		Resume:      o.resume,
		Log:         o.log,
		Flight:      o.flight,
		FlightDir:   o.flightDir,
	}
	var tier *cachetier.Tier
	if o.cacheTier != "" {
		tier = cachetier.New(cachetier.Config{
			Nodes:     strings.Split(o.cacheTier, ","),
			Logger:    o.log,
			Flight:    o.flight,
			FlightDir: o.flightDir,
		})
		// Completed rows write through to their owning node, and the
		// tier's breaker/fill counters ride the coordinator's /metrics.
		cfg.CacheFill = tier.Fill
		cfg.ExtraMetrics = tier.Samples
		// The prober needs its own cancellation: the signal context only
		// cancels on SIGINT/SIGTERM, and a normal exit must not wait on it.
		pctx, pcancel := context.WithCancel(ctx)
		tier.StartProber(pctx)
		defer func() { pcancel(); tier.StopProber() }()
	}
	co, err := dist.NewCoordinator(s, cfg)
	if err != nil {
		return fail(err)
	}
	defer co.Close()

	addr := o.listen
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fail(err)
	}
	srv := &http.Server{
		Handler:           co.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		if serr := srv.Serve(ln); serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "uvmsweep: coordinator server: %v\n", serr)
		}
	}()
	url := "http://" + ln.Addr().String()
	fmt.Fprintf(os.Stderr, "# coordinator listening on %s (lease-ttl %s, cell-retries %d)\n",
		url, o.leaseTTL, o.cellRetries)
	if o.log != nil {
		o.log.Info("coordinator listening",
			slog.String("url", url),
			slog.String(telemetry.KeyTraceID, co.TraceID()))
	}

	procs, err := spawnWorkers(ctx, o, url)
	if err != nil {
		srv.Close()
		return fail(err)
	}

	res, runErr := co.Wait(ctx)
	// Keep answering done briefly so attached workers exit clean instead
	// of seeing the listener vanish mid-poll.
	if o.linger > 0 {
		t := time.NewTimer(o.linger)
		select {
		case <-t.C:
		case <-ctx.Done():
		}
		t.Stop()
	}
	shctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	if serr := srv.Shutdown(shctx); serr != nil {
		srv.Close()
	}
	cancel()
	reapWorkers(procs)

	fmt.Fprintf(os.Stderr, "# dist: %s\n", co.Summary())
	if res != nil {
		if err := flush(res, s, o.csv, "", ""); err != nil {
			return fail(err)
		}
	}
	if runErr != nil {
		st := govern.StatusOf(runErr)
		fmt.Fprintf(os.Stderr, "uvmsweep: %s: %v\n", st.State, runErr)
		if st.State == govern.StateCancelled && o.journal != "" {
			fmt.Fprintf(os.Stderr, "uvmsweep: resume with: -resume -journal %s\n", o.journal)
		}
		return govern.ExitCode(st.State)
	}
	counts := res.Counts()
	if q := counts[govern.StateQuarantined]; q > 0 {
		fmt.Fprintf(os.Stderr, "uvmsweep: %d cells quarantined (poison cells; retry budget %d spent):\n", q, o.cellRetries)
		for _, cs := range res.Statuses {
			if cs.State == govern.StateQuarantined {
				fmt.Fprintf(os.Stderr, "  %s: %s\n", cs.Label, cs.Err)
			}
		}
		return govern.ExitFailure
	}
	if n := counts[govern.StateDeadline] + counts[govern.StateLivelock]; n > 0 {
		fmt.Fprintf(os.Stderr, "uvmsweep: %d cells stopped by budget (deadline=%d livelock=%d)\n",
			n, counts[govern.StateDeadline], counts[govern.StateLivelock])
		return govern.ExitBudget
	}
	return govern.ExitOK
}

// spawnWorkers starts o.workers local uvmworker processes attached to
// the coordinator. They die with ctx (SIGINT reaches them through the
// CommandContext kill) and exit on their own when the sweep settles.
func spawnWorkers(ctx context.Context, o distOptions, url string) ([]*exec.Cmd, error) {
	if o.workers <= 0 {
		return nil, nil
	}
	bin := o.workerBin
	if bin == "" {
		if self, err := os.Executable(); err == nil {
			cand := filepath.Join(filepath.Dir(self), "uvmworker")
			if _, serr := os.Stat(cand); serr == nil {
				bin = cand
			}
		}
		if bin == "" {
			if p, err := exec.LookPath("uvmworker"); err == nil {
				bin = p
			}
		}
		if bin == "" {
			return nil, fmt.Errorf("uvmworker binary not found next to this executable or in PATH; `go build ./cmd/uvmworker` or pass -worker-bin")
		}
	}
	var procs []*exec.Cmd
	for i := 0; i < o.workers; i++ {
		cmd := exec.CommandContext(ctx, bin, "-coordinator", url, "-name", fmt.Sprintf("local-%d", i))
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			for _, p := range procs {
				p.Process.Kill()
				p.Wait()
			}
			return nil, fmt.Errorf("spawn worker %d: %w", i, err)
		}
		procs = append(procs, cmd)
	}
	return procs, nil
}

// reapWorkers waits briefly for spawned workers; stragglers are killed.
// A worker's exit code is advisory — the lease fabric already absorbed
// any worker failure into the sweep result.
func reapWorkers(procs []*exec.Cmd) {
	for _, p := range procs {
		done := make(chan error, 1)
		go func(c *exec.Cmd) { done <- c.Wait() }(p)
		select {
		case err := <-done:
			if err != nil {
				fmt.Fprintf(os.Stderr, "# worker exited: %v\n", err)
			}
		case <-time.After(5 * time.Second):
			p.Process.Kill()
			<-done
		}
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("uvmsweep: bad float %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("uvmsweep: bad int %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "uvmsweep:", err)
	return 1
}
