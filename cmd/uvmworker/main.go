// Command uvmworker is one stateless worker of the distributed sweep
// fabric. It attaches to a coordinator (uvmsweep -listen), leases sweep
// cells one at a time, runs each through the in-process engine while
// heartbeating the lease, and reports the govern verdict back. Workers
// hold no sweep state: killing one at any instant degrades to "its
// leased cell is not yet completed" — the coordinator reassigns the
// cell after the lease expires, and a worker that finishes after its
// lease was reassigned delivers a harmless duplicate (rows are
// deterministic, so the coordinator deduplicates by confighash).
//
// With -serve, the worker consults a replicated uvmserved cache tier
// before simulating: cells route to their owning node by consistent
// hash, each node sits behind a circuit breaker fed by active health
// probes and passive failures, and reads fail over to the next ring
// node when the owner is dark. The tier is an accelerator only: any
// miss, partition, or full-tier outage falls back to the local engine,
// and determinism keeps the output byte-identical either way.
//
// Usage:
//
//	uvmworker -coordinator http://127.0.0.1:9933
//	uvmworker -coordinator http://127.0.0.1:9933 -name w2 \
//	    -serve http://127.0.0.1:8844,http://127.0.0.1:8845,http://127.0.0.1:8846
//
// The -inject-dup, -inject-fail, and -slow flags are chaos hooks for
// the dist_check gate: they force a duplicate completion report, a
// misreported failure (exercising the retry path and the worker's
// flight-recorder dump), and widen the held-lease window a kill -9
// must land in.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"uvmsim/internal/cachetier"
	"uvmsim/internal/dist"
	"uvmsim/internal/govern"
	"uvmsim/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		coord      = flag.String("coordinator", "http://127.0.0.1:9933", "coordinator base URL")
		name       = flag.String("name", "", "worker identity for coordinator audit logs (default host PID)")
		serveURLs  = flag.String("serve", "", "comma-separated uvmserved node URLs forming the shared cache tier consulted before simulating")
		brkFails   = flag.Int("breaker-failures", cachetier.DefaultFailureThreshold, "consecutive failures that open a cache node's circuit breaker")
		brkOpen    = flag.Duration("breaker-open", cachetier.DefaultOpenTimeout, "cool-off before an open breaker admits a half-open trial")
		probeEvery = flag.Duration("probe-interval", time.Second, "active /healthz probe interval per cache node (negative disables)")
		tierWait   = flag.Duration("tier-timeout", 0, "per-node cache-tier read timeout (0 = tier default); a node slower than this counts as failed")
		quiet      = flag.Bool("quiet", false, "suppress per-lease progress lines")
		injectDup  = flag.Bool("inject-dup", false, "chaos hook: re-send the first completion report (dedup exercise)")
		injectFail = flag.Int("inject-fail", 0, "chaos hook: misreport the first N completed cells as failed (retry + flight-dump exercise)")
		slow       = flag.Duration("slow", 0, "chaos hook: pause after acquiring each lease before running")
	)
	var gf govern.Flags
	gf.Register(flag.CommandLine)
	var tf telemetry.Flags
	tf.Register()
	flag.Parse()

	if *name == "" {
		*name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	flight := tf.Flight()
	lg := tf.Logger("uvmworker", flight).With("worker", *name)
	cfg := dist.WorkerConfig{
		Coordinator:       *coord,
		Name:              *name,
		Flight:            flight,
		FlightDir:         tf.FlightDir,
		InjectDupComplete: *injectDup,
		InjectFail:        *injectFail,
		SlowStart:         *slow,
	}
	if !*quiet {
		cfg.Logger = lg
	}
	var tier *cachetier.Tier
	if *serveURLs != "" {
		tier = cachetier.New(cachetier.Config{
			Nodes:            strings.Split(*serveURLs, ","),
			FailureThreshold: *brkFails,
			OpenTimeout:      *brkOpen,
			ProbeInterval:    *probeEvery,
			LookupTimeout:    *tierWait,
			Logger:           lg,
			Flight:           flight,
			FlightDir:        tf.FlightDir,
		})
		cfg.Runner = tier.Runner(dist.LocalRunner)
	}

	// Abnormal run outcomes (budget overruns, recovered panics) feed the
	// flight ring and trigger dumps.
	defer telemetry.ArmGovern(flight, tf.FlightDir, lg)()

	ctx, stop := gf.Context()
	defer stop()
	if tier != nil {
		// The prober needs its own cancellation: the signal context only
		// cancels on SIGINT/SIGTERM, and a normal exit must not wait on it.
		pctx, pcancel := context.WithCancel(ctx)
		tier.StartProber(pctx)
		defer func() { pcancel(); tier.StopProber() }()
	}
	if err := dist.NewWorker(cfg).Run(ctx); err != nil {
		st := govern.StatusOf(err)
		fmt.Fprintf(os.Stderr, "uvmworker: %s: %v\n", st.State, err)
		return govern.ExitCode(st.State)
	}
	return govern.ExitOK
}
