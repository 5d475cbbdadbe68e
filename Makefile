GO ?= go

.PHONY: check build vet perfbenchcheck test race bench benchall bench_baseline benchcheck allocguard chaos resumecheck servecheck distcheck logcheck fleetchaos multigpucheck clean

# The full verification gate: compile everything, vet, run the test
# suite under the race detector, hold the observability layer and hot
# paths to their zero-alloc contracts, gate benchmark regressions
# against the committed baseline, smoke the serving layer end-to-end,
# kill-and-recover the distributed sweep fabric, chaos-test the
# replicated cache tier, validate the fleet's structured telemetry
# against its schema, and hold the multi-GPU model to its determinism
# and K=1-compatibility pins. perfbench, a separate module the root
# build never compiles, is vetted and tested alongside.
check: build vet perfbenchcheck race allocguard benchcheck servecheck distcheck fleetchaos logcheck multigpucheck

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# perfbench is its own Go module (it imports this one through a replace
# directive), so `go build ./...` and `go test ./...` at the root skip it.
perfbenchcheck:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

test:
	$(GO) test -timeout 10m ./...

race:
	$(GO) test -race -timeout 15m ./...

# The curated benchmark suite: engine/driver/tree/mem microbenchmarks
# plus the Fig. 1 macro suite, all with allocation counts and fixed
# seeds, written machine-readable to results/bench_<date>.json (raw
# text on stderr). Numbers are recorded against EXPERIMENTS.md's
# "Simulator performance" baselines.
bench:
	mkdir -p results
	{ $(GO) test -bench=. -benchmem -run=^$$ -count=1 \
	      ./internal/sim ./internal/mem ./internal/tree ./internal/driver ./internal/core ; \
	  $(GO) test -bench 'BenchmarkFig1AccessLatency' -benchtime 1x -benchmem -run=^$$ -count=1 . ; } \
	  | tee /dev/stderr | $(GO) run ./cmd/benchjson -o results/bench_$$(date +%Y%m%d).json

# Everything with a Benchmark function, including the full paper-artifact
# regeneration benches at the repo root (slow). For serving-layer
# throughput (cold vs warm cache), run uvmload twice with the same seed
# against a running uvmserved — see EXPERIMENTS.md "Serving layer":
#   go run ./cmd/uvmserved -addr :8844 &
#   go run ./cmd/uvmload -url http://localhost:8844 -n 200 -c 8
benchall:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Benchmark regression gate: rerun the guarded suite and compare against
# the committed results/bench_baseline.json. >10% alloc/op growth on a
# guarded benchmark fails (deterministic, strict); ns/op is a noise-aware
# backstop (default 30%, BENCH_TIME_TOL=10 on quiet hardware).
benchcheck:
	sh scripts/bench_check.sh

# Regenerate the committed baseline after an intentional perf change.
bench_baseline:
	sh scripts/bench_check.sh --update-baseline

# Alloc-guard: the nil-sink tracer/lifecycle fast path, the driver's
# batch preprocess, the prefetch planner, the bitmap word-scan
# primitives, LRU and thrash-detector churn must all stay allocation-free
# in steady state, and the instrumented end-to-end benchmark must run.
allocguard:
	$(GO) test ./internal/obs -run TestNilTracerAllocFree -count=1
	$(GO) test ./internal/driver -run 'TestPreprocessSteadyStateAllocFree|TestFetchSteadyStateAllocFree' -count=1
	$(GO) test ./internal/tree -run TestPlanSteadyStateAllocFree -count=1
	$(GO) test ./internal/mem -run TestBitmapWordPrimitivesAllocFree -count=1
	$(GO) test ./internal/evict -run TestLRUChurnAllocFree -count=1
	$(GO) test ./internal/thrash -run TestDetectorChurnAllocFree -count=1
	$(GO) test ./internal/multigpu -run 'TestClassifySteadyStateAllocFree|TestRemoteAccessSteadyStateAllocFree|TestFabricStreamSteadyStateAllocFree' -count=1
	$(GO) test ./internal/core -bench BenchmarkDriverService -benchtime 2x -benchmem -run=^$$

# Seeded fault-injection campaign across workloads and replay policies;
# exits non-zero if any cell fails to converge.
chaos:
	$(GO) run ./cmd/uvmchaos

# Kill-and-resume gate: SIGINT uvmsweep mid-run, resume from its journal,
# diff against an uninterrupted run at -jobs 1/4/8.
resumecheck:
	sh scripts/resume_check.sh

# Serving-layer e2e smoke: start uvmserved, prove cached re-submission
# is byte-identical and faster, force 429 backpressure under a tiny
# queue with uvmload, and SIGTERM-drain expecting exit 0.
servecheck:
	sh scripts/serve_check.sh

# Distributed-fabric gate: coordinator + 3 workers under -race, kill -9
# one worker mid-sweep, inject a duplicate completion, require the
# merged output byte-identical to a serial run and exit 0. A telemetry
# leg traces one ID through coordinator, worker, and serve tier and
# validates the flight dump an injected failure produces.
distcheck:
	sh scripts/dist_check.sh

# Cache-tier chaos gate: 3 uvmserved nodes behind netchaos proxies,
# partition one and kill -9 another mid-sweep, require the merged table
# byte-identical to a serial run, nothing quarantined, breaker-open
# visible in /metrics and the flight dump.
fleetchaos:
	sh scripts/fleet_chaos_check.sh

# Telemetry-schema gate: every structured line a live JSON-mode server
# emits must validate (uvmlogcheck), malformed lines and flight dumps
# must be rejected.
logcheck:
	sh scripts/log_check.sh

# Multi-GPU gate: the pinned K=1 and K=4 goldens must hold under -race,
# a K=4 policy sweep through the real uvmsweep binary must be
# byte-identical at -jobs 1/4/8, and an explicit -gpus 1 run must
# collapse to the implicit single-GPU default.
multigpucheck:
	sh scripts/multigpu_check.sh

clean:
	$(GO) clean ./...
