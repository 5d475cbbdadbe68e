// Command uvmchaos runs seeded fault-injection campaigns against the
// simulated UVM stack and verifies convergence: for every (workload,
// replay policy, seed) cell it executes a clean baseline and a perturbed
// run — dropped/duplicated fault entries, delayed ready flags, overflow
// storms, transient DMA failures, eviction stalls — and asserts both
// service the same page set with zero invariant violations.
//
// Usage:
//
//	uvmchaos
//	uvmchaos -seeds 1,2,3 -workloads regular,random,stream,tealeaf
//	uvmchaos -policies batchflush,once,block -drop 0.05 -dma-fail 0.2
//	uvmchaos -footprint 1.5    # oversubscribed: eviction under chaos
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"uvmsim/internal/chaos"
	"uvmsim/internal/driver"
	"uvmsim/internal/govern"
	"uvmsim/internal/inject"
	"uvmsim/internal/prof"
	"uvmsim/internal/sim"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		gpuMB      = flag.Int64("gpu-mem", 32, "GPU framebuffer in MiB")
		footprint  = flag.Float64("footprint", 0.75, "data footprint as a fraction of GPU memory")
		workloadsF = flag.String("workloads", "regular,random,stream", "comma-separated workload names")
		policiesF  = flag.String("policies", "batchflush,once", "comma-separated replay policies")
		seedsF     = flag.String("seeds", "1,2", "comma-separated seeds")
		drop       = flag.Float64("drop", 0.02, "fault-entry drop probability")
		dup        = flag.Float64("dup", 0.02, "fault-entry duplication probability")
		readyDelay = flag.Float64("ready-delay", 0.05, "ready-flag delay probability")
		storm      = flag.Float64("storm", 0.002, "overflow-storm start probability")
		stormLen   = flag.Int("storm-len", 32, "puts rejected per overflow storm")
		dmaFail    = flag.Float64("dma-fail", 0.05, "transient DMA failure probability")
		evictStall = flag.Float64("evict-stall", 0.1, "eviction stall probability")
		jobs       = flag.Int("jobs", 0, "worker goroutines fanning cells out (0 = all CPUs, 1 = serial)")
		verbose    = flag.Bool("v", false, "print per-run detail columns")
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

	camp := chaos.Campaign{
		GPUMemoryBytes: *gpuMB << 20,
		FootprintFrac:  *footprint,
		Workloads:      splitList(*workloadsF),
		Jobs:           *jobs,
		Budget:         gf.Budget(),
		Inject: inject.Config{
			Enabled:        true,
			DropProb:       *drop,
			DupProb:        *dup,
			ReadyDelayProb: *readyDelay,
			ReadyDelayMax:  20 * sim.Microsecond,
			StormProb:      *storm,
			StormLen:       *stormLen,
			DMAFailProb:    *dmaFail,
			EvictStallProb: *evictStall,
			EvictStallMax:  50 * sim.Microsecond,
		},
	}
	for _, s := range splitList(*policiesF) {
		p, err := driver.ParseReplayPolicy(s)
		if err != nil {
			return fail(err)
		}
		camp.Policies = append(camp.Policies, p)
	}
	for _, s := range splitList(*seedsF) {
		seed, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return fail(fmt.Errorf("bad seed %q: %w", s, err))
		}
		camp.Seeds = append(camp.Seeds, seed)
	}

	ctx, stop := gf.Context()
	defer stop()
	cells, err := chaos.RunContext(ctx, camp)
	if err != nil {
		st := govern.StatusOf(err)
		fmt.Fprintf(os.Stderr, "uvmchaos: %s: %v\n", st.State, err)
		return govern.ExitCode(st.State)
	}

	fmt.Printf("%-10s %-10s %-5s %8s %9s %9s %7s %7s %7s %7s %6s  %s\n",
		"workload", "policy", "seed", "pages", "base_flt", "inj_flt",
		"drops", "dups", "dma", "forced", "slow", "verdict")
	failed, budgeted := 0, 0
	for _, c := range cells {
		verdict := "ok"
		switch {
		case c.Status == govern.StateDeadline || c.Status == govern.StateLivelock:
			// Stopped by a run budget, not a convergence failure: report
			// the governance verdict instead of a misleading FAIL.
			verdict = string(c.Status)
			budgeted++
		case !c.Converged:
			verdict = "FAIL"
			failed++
		}
		slowdown := "-"
		if c.Baseline.TotalTime > 0 {
			slowdown = fmt.Sprintf("%.2fx", float64(c.Injected.TotalTime)/float64(c.Baseline.TotalTime))
		}
		fmt.Printf("%-10s %-10s %-5d %8d %9d %9d %7d %7d %7d %7d %6s  %s\n",
			c.Workload, c.Policy, c.Seed, c.Pages,
			c.Baseline.FaultsFetched, c.Injected.FaultsFetched,
			c.Injector.Drops, c.Injector.Dups, c.Injector.DMAFailures,
			c.Injected.ForcedReplays, slowdown, verdict)
		if *verbose {
			fmt.Printf("    baseline: time=%v replays=%d evictions=%d checks=%d(%d deep)\n",
				c.Baseline.TotalTime, c.Baseline.Replays, c.Baseline.Evictions,
				c.Baseline.Checks, c.Baseline.DeepChecks)
			fmt.Printf("    injected: time=%v replays=%d evictions=%d retries=%d giveups=%d stalls=%d delays=%d storms=%d checks=%d(%d deep)\n",
				c.Injected.TotalTime, c.Injected.Replays, c.Injected.Evictions,
				c.Injected.DMARetries, c.Injected.DMAGiveups, c.Injector.EvictStalls,
				c.Injector.ReadyDelays, c.Injector.Storms,
				c.Injected.Checks, c.Injected.DeepChecks)
		}
		if c.Err != nil {
			fmt.Printf("    error: %v\n", c.Err)
		}
	}
	fmt.Printf("\n%d/%d cells converged (identical serviced page totals, zero invariant violations)\n",
		len(cells)-failed-budgeted, len(cells))
	if failed > 0 {
		return govern.ExitFailure
	}
	if budgeted > 0 {
		fmt.Fprintf(os.Stderr, "uvmchaos: %d cells stopped by budget\n", budgeted)
		return govern.ExitBudget
	}
	return govern.ExitOK
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

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "uvmchaos:", err)
	return 1
}
