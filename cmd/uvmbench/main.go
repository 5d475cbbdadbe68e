// Command uvmbench regenerates the paper's tables and figures as text
// tables or CSV.
//
// Usage:
//
//	uvmbench -list
//	uvmbench -exp fig3
//	uvmbench -exp all -gpu-mem 96 -csv -out results/
//	uvmbench -exp fig1 -trace fig1.trace.json -metrics fig1.metrics.csv
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"uvmsim/internal/atomicio"
	"uvmsim/internal/exp"
	"uvmsim/internal/govern"
	"uvmsim/internal/multigpu"
	"uvmsim/internal/obs"
	"uvmsim/internal/prof"
	"uvmsim/internal/stats"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		expID      = flag.String("exp", "", "experiment id to run, or 'all'")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		gpuMB      = flag.Int64("gpu-mem", 96, "scaled GPU framebuffer size in MiB (paper: 12288)")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		quick      = flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
		jobs       = flag.Int("jobs", 0, "worker goroutines per experiment (0 = all CPUs, 1 = serial); output is identical at every value")
		gpus       = flag.Int("gpus", 1, "run every cell on this many GPUs (1 = the paper's single-GPU testbed)")
		migration  = flag.String("migration", "first-touch", "multi-GPU migration policy (first-touch, access-counter); ignored at 1 GPU")
		csvOut     = flag.Bool("csv", false, "emit CSV instead of aligned text")
		jsonOut    = flag.Bool("json", false, "emit JSON instead of aligned text")
		outDir     = flag.String("out", "", "write one file per table into this directory instead of stdout")
		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON of every cell to this file (load in Perfetto)")
		metricsOut = flag.String("metrics", "", "write every cell's metrics registry as CSV to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the host process to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile of the host process to this file on exit")
	)
	var gf govern.Flags
	gf.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, id := range exp.ExperimentIDs() {
			fmt.Println(id)
		}
		return 0
	}
	if *expID == "" {
		fmt.Fprintln(os.Stderr, "uvmbench: -exp <id> required (use -list to enumerate)")
		return govern.ExitUsage
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uvmbench:", err)
		return 1
	}
	defer stopProf()

	mpol, err := multigpu.ParsePolicy(*migration)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uvmbench:", err)
		return govern.ExitUsage
	}
	sc := exp.Scale{GPUMemoryBytes: *gpuMB << 20, Seed: *seed, Quick: *quick, Jobs: *jobs,
		Budget: gf.Budget(), GPUs: *gpus, Migration: mpol}
	if *traceOut != "" || *metricsOut != "" {
		sc.Obs = obs.NewCollector()
		sc.Lifecycle = true
	}

	ctx, stop := gf.Context()
	defer stop()
	ids := []string{*expID}
	if *expID == "all" {
		ids = exp.ExperimentIDs()
	}
	for _, id := range ids {
		start := time.Now()
		tables, err := exp.RunContext(ctx, id, sc)
		if err != nil {
			st := govern.StatusOf(err)
			fmt.Fprintf(os.Stderr, "uvmbench: %s: %s: %v\n", id, st.State, err)
			return govern.ExitCode(st.State)
		}
		for i, tb := range tables {
			if err := emit(tb, id, i, *csvOut, *jsonOut, *outDir); err != nil {
				fmt.Fprintf(os.Stderr, "uvmbench: %s: %v\n", id, err)
				return 1
			}
		}
		fmt.Fprintf(os.Stderr, "# %s done in %v\n", id, time.Since(start).Round(time.Millisecond))
	}
	if sc.Obs != nil {
		if err := exportObs(sc.Obs, *traceOut, *metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "uvmbench:", err)
			return 1
		}
	}
	return 0
}

// exportObs writes the collected spans and metrics to their destination
// files (empty path = skip). Writes are atomic: an existing export is
// never left truncated by a crash mid-write.
func exportObs(c *obs.Collector, tracePath, metricsPath string) error {
	if tracePath != "" {
		if err := atomicio.WriteFile(tracePath, c.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "# wrote %s (%d cells)\n", tracePath, len(c.Cells()))
	}
	if metricsPath != "" {
		if err := atomicio.WriteFile(metricsPath, c.WriteMetricsCSV); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "# wrote %s\n", metricsPath)
	}
	return nil
}

func emit(tb *stats.Table, id string, idx int, csv, asJSON bool, outDir string) error {
	write := func(w io.Writer) error {
		switch {
		case asJSON:
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(tb)
		case csv:
			return tb.WriteCSV(w)
		default:
			return tb.WriteText(w)
		}
	}
	if outDir == "" {
		err := write(os.Stdout)
		if !csv && !asJSON {
			fmt.Println()
		}
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	ext := "txt"
	if csv {
		ext = "csv"
	}
	if asJSON {
		ext = "json"
	}
	name := id
	if idx > 0 {
		name = fmt.Sprintf("%s_%d", id, idx)
	}
	path := filepath.Join(outDir, name+"."+ext)
	if err := atomicio.WriteFile(path, write); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "# wrote %s (%s)\n", path, strings.TrimSpace(tb.Title))
	return nil
}
