// Command uvmreplay drives the simulator with an externally captured
// page-access trace: either a two-column "page_index,rw" CSV or the
// cmd/faulttrace export format. This lets fault logs from real UVM
// instrumentation (or from other simulators) be replayed against any
// driver configuration.
//
// Usage:
//
//	faulttrace -workload random > random.csv
//	uvmreplay -trace random.csv -prefetch none
//	uvmreplay -trace app_pages.csv -gpu-mem 48 -evict access-aware
package main

import (
	"flag"
	"fmt"
	"os"

	"uvmsim/internal/core"
	"uvmsim/internal/sweep"
	"uvmsim/internal/workloads"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "trace file (page_index,rw CSV or faulttrace export); - for stdin")
		gpuMB     = flag.Int64("gpu-mem", 96, "GPU framebuffer in MiB")
		prefetch  = flag.String("prefetch", "density", "prefetch policy")
		evictPol  = flag.String("evict", "lru", "eviction policy")
		replayPol = flag.String("replay", "batchflush", "replay policy")
		seed      = flag.Uint64("seed", 1, "simulation seed")
	)
	flag.Parse()
	if *tracePath == "" {
		fmt.Fprintln(os.Stderr, "uvmreplay: -trace <file> required")
		os.Exit(2)
	}

	in := os.Stdin
	if *tracePath != "-" {
		f, err := os.Open(*tracePath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	accesses, err := workloads.ParseTrace(in)
	if err != nil {
		fatal(err)
	}

	cell := sweep.Cell{
		GPUMemoryBytes: *gpuMB << 20, Seed: *seed,
		Prefetch: *prefetch, Evict: *evictPol, Replay: *replayPol,
	}
	cfg, err := cell.Config()
	if err != nil {
		fatal(err)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		fatal(err)
	}
	k, err := workloads.Replay(sys, accesses, cell.Params())
	if err != nil {
		fatal(err)
	}
	res, err := sys.RunUVM(k)
	if err != nil {
		fatal(err)
	}
	footprint := sys.Space().TotalPages()
	fmt.Printf("replayed %d accesses over %d pages (%.1f MiB) on a %d MiB GPU\n",
		len(accesses), footprint, float64(footprint)*4/1024, *gpuMB)
	fmt.Printf("total=%v faults=%d evictions=%d h2d=%.1fMB d2h=%.1fMB\n",
		res.TotalTime, res.Faults, res.Evictions,
		float64(res.BytesH2D)/(1<<20), float64(res.BytesD2H)/(1<<20))
	fmt.Printf("breakdown: %s\n", res.Breakdown.String())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "uvmreplay:", err)
	os.Exit(1)
}
