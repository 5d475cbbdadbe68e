// Package uvmsim is a discrete-event simulation of NVIDIA's Unified
// Virtual Memory (UVM) stack, reproducing the measurement study
// "Demystifying GPU UVM Cost with Deep Runtime and Workload Analysis"
// (Allen & Ge, IPDPS 2021) in pure Go.
//
// The library assembles a simulated GPU (SMs, warps, replayable faults,
// fault buffer), the UVM driver pipeline (fault batching, VABlock
// binning, servicing, four replay policies), the two-stage tree-based
// density prefetcher, LRU VABlock eviction, a chunked physical memory
// allocator, and a PCIe-like interconnect. The paper's benchmark suite is
// available as page-granularity workload generators, and every table and
// figure from the paper's evaluation can be regenerated through the
// experiment registry (see RunExperiment and cmd/uvmbench).
//
// Quick start:
//
//	cfg := uvmsim.DefaultConfig(96 << 20) // 96 MB framebuffer
//	sys, err := uvmsim.NewSystem(cfg)
//	if err != nil { ... }
//	kernel, err := uvmsim.BuildWorkload(sys, "regular", 32<<20, uvmsim.DefaultWorkloadParams())
//	if err != nil { ... }
//	res, err := sys.RunUVM(kernel)
//	fmt.Println(res.TotalTime, res.Faults, res.Breakdown.String())
package uvmsim

import (
	"io"

	"uvmsim/internal/chaos"
	"uvmsim/internal/core"
	"uvmsim/internal/driver"
	"uvmsim/internal/exp"
	"uvmsim/internal/gpusim"
	"uvmsim/internal/inject"
	"uvmsim/internal/mem"
	"uvmsim/internal/sim"
	"uvmsim/internal/stats"
	"uvmsim/internal/workloads"
)

// Core system types.
type (
	// Config describes a complete simulated system.
	Config = core.Config
	// System is an assembled simulated machine.
	System = core.System
	// RunResult reports one kernel execution.
	RunResult = core.RunResult
	// Kernel is a grid of thread blocks over page-granularity accesses.
	Kernel = gpusim.Kernel
	// WorkloadParams tunes workload kernel shapes.
	WorkloadParams = workloads.Params
	// Table is a rendered experiment result.
	Table = stats.Table
	// Breakdown is driver time attributed to the paper's cost categories.
	Breakdown = stats.Breakdown
	// Duration is simulated time in nanoseconds.
	Duration = sim.Duration
	// ReplayPolicy selects when fault replays are issued.
	ReplayPolicy = driver.ReplayPolicy
	// Scale fixes experiment hardware scale and seed.
	Scale = exp.Scale
	// Range is one managed allocation.
	Range = mem.Range
	// AccessMode selects one of UVM's three page access behaviors.
	AccessMode = mem.AccessMode
	// InjectConfig configures the deterministic fault-injection layer
	// (set Config.Inject to enable seeded chaos in a system).
	InjectConfig = inject.Config
	// ChaosCampaign describes a fault-injection convergence sweep.
	ChaosCampaign = chaos.Campaign
	// ChaosCell is one (workload, policy, seed) result of a campaign.
	ChaosCell = chaos.Cell
)

// DefaultInjectConfig returns a moderate all-layers injection campaign
// seeded with seed.
func DefaultInjectConfig(seed uint64) InjectConfig { return inject.DefaultConfig(seed) }

// RunChaos executes a fault-injection campaign and returns one cell per
// (workload, policy, seed) combination.
func RunChaos(c ChaosCampaign) ([]ChaosCell, error) { return chaos.Run(c) }

// DefaultChaosCampaign returns the standard convergence sweep run by
// cmd/uvmchaos.
func DefaultChaosCampaign() ChaosCampaign { return chaos.DefaultCampaign() }

// UVM access behaviors (paper §III-A).
const (
	// ModeMigrate is paged migration via far-faults (the default).
	ModeMigrate = mem.ModeMigrate
	// ModeRemoteMap maps host memory without migrating it.
	ModeRemoteMap = mem.ModeRemoteMap
	// ModeReadDup duplicates read-only data on both sides.
	ModeReadDup = mem.ModeReadDup
)

// Replay policies (paper §III-E).
const (
	ReplayBlock      = driver.ReplayBlock
	ReplayBatch      = driver.ReplayBatch
	ReplayBatchFlush = driver.ReplayBatchFlush
	ReplayOnce       = driver.ReplayOnce
)

// Layout constants.
const (
	// PageSize is the OS page size (4 KB).
	PageSize = mem.PageSize
	// BigPageSize is the prefetcher's big-page upgrade size (64 KB).
	BigPageSize = mem.BigPageSize
	// VABlockSize is the default virtual address block size (2 MB).
	VABlockSize = mem.DefaultVABlockSize
)

// DefaultConfig returns the calibrated system configuration for a
// framebuffer of the given size. The paper's testbed (12 GB Titan V) is
// typically scaled down (e.g. 96 MB) with problem sizes scaled to match.
func DefaultConfig(gpuMemoryBytes int64) Config {
	return core.DefaultConfig(gpuMemoryBytes)
}

// NewSystem assembles a simulated system.
func NewSystem(cfg Config) (*System, error) { return core.NewSystem(cfg) }

// DefaultWorkloadParams returns the workload shape used by the paper
// reproduction experiments.
func DefaultWorkloadParams() WorkloadParams { return workloads.DefaultParams() }

// WorkloadNames lists the benchmark suite in the paper's Table I order:
// regular, random, sgemm, stream, cufft, tealeaf, hpgmg, cusparse.
func WorkloadNames() []string { return workloads.Names() }

// BuildWorkload allocates managed memory on sys and builds the named
// workload kernel with roughly the given total data footprint.
func BuildWorkload(sys *System, name string, bytes int64, p WorkloadParams) (*Kernel, error) {
	b, err := workloads.Get(name)
	if err != nil {
		return nil, err
	}
	return b(sys, bytes, p)
}

// modeAllocator forces a UVM access behavior onto workload allocations.
type modeAllocator struct {
	sys  *System
	mode AccessMode
}

func (a modeAllocator) MallocManaged(size int64, label string) (*Range, error) {
	return a.sys.MallocManagedMode(size, label, a.mode)
}

// BuildWorkloadMode is BuildWorkload with every range allocated under
// the given access behavior (remote mapping, read duplication, ...).
func BuildWorkloadMode(sys *System, name string, bytes int64, mode AccessMode, p WorkloadParams) (*Kernel, error) {
	b, err := workloads.Get(name)
	if err != nil {
		return nil, err
	}
	return b(modeAllocator{sys, mode}, bytes, p)
}

// BuildSGEMM builds the tiled matrix-multiply workload with n×n
// matrices (footprint = 12n² bytes across A, B, C).
func BuildSGEMM(sys *System, n int, p WorkloadParams) (*Kernel, error) {
	return workloads.SGEMM(sys, n, p)
}

// DefaultScale returns the default experiment scale (1/128 of the
// paper's 12 GB Titan V).
func DefaultScale() Scale { return exp.DefaultScale() }

// ExperimentIDs lists the reproducible artifacts: fig1, fig3, fig4,
// fig5, fig7, fig8, fig9, fig10, tab1, tab2, the abl-* ablations, and
// the val-* validation harnesses (full-scale spot check, seed stability,
// calibration anchors).
func ExperimentIDs() []string { return exp.ExperimentIDs() }

// RunExperiment regenerates the named table or figure from the paper.
func RunExperiment(id string, sc Scale) ([]*Table, error) { return exp.Run(id, sc) }

// ApplyModuleParams mutates cfg using the real NVIDIA UVM kernel-module
// parameter names (uvm_perf_prefetch_enable, uvm_perf_prefetch_threshold,
// uvm_perf_fault_batch_count, uvm_perf_fault_replay_policy, ...), so
// configurations written for the actual driver translate directly.
func ApplyModuleParams(cfg *Config, params string) error {
	return core.ApplyModuleParams(cfg, params)
}

// TraceAccess is one access of an externally captured page trace.
type TraceAccess = workloads.TraceAccess

// ParseTrace reads a page-access trace: either a two-column
// "page_index,rw" CSV or the `uvmreport -csv` export format.
func ParseTrace(r io.Reader) ([]TraceAccess, error) { return workloads.ParseTrace(r) }

// BuildReplay builds a kernel that re-issues a captured page trace
// against a managed allocation sized to the trace's footprint.
func BuildReplay(sys *System, accesses []TraceAccess, p WorkloadParams) (*Kernel, error) {
	return workloads.Replay(sys, accesses, p)
}
