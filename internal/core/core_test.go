package core

import (
	"strings"
	"testing"

	"uvmsim/internal/sim"
	"uvmsim/internal/stats"
	"uvmsim/internal/workloads"
)

// newSys builds a system with the given framebuffer and options applied
// to the default config.
func newSys(t *testing.T, gpuMem int64, mut ...func(*Config)) *System {
	t.Helper()
	cfg := DefaultConfig(gpuMem)
	for _, m := range mut {
		m(&cfg)
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func noPrefetch(c *Config) { c.PrefetchPolicy = "none" }

func runRegular(t *testing.T, s *System, bytes int64) *RunResult {
	t.Helper()
	k, err := workloads.PageTouchRegular(s, bytes, workloads.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunUVM(k)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestUVMRunCompletesAndMigratesEverything(t *testing.T) {
	s := newSys(t, 64<<20, noPrefetch)
	res := runRegular(t, s, 8<<20)
	if got := s.ResidentPages(); got != 2048 {
		t.Errorf("resident = %d, want 2048", got)
	}
	if res.Faults == 0 || res.GPU.Replays == 0 {
		t.Errorf("faults=%d replays=%d", res.Faults, res.GPU.Replays)
	}
	if res.BytesH2D < 8<<20 {
		t.Errorf("H2D bytes = %d, want >= 8MB", res.BytesH2D)
	}
	if res.KernelTime <= 0 || res.TotalTime != res.KernelTime {
		t.Errorf("times: kernel=%v total=%v", res.KernelTime, res.TotalTime)
	}
	if res.Breakdown.Total() <= 0 {
		t.Error("empty breakdown")
	}
}

// Calibration: the paper reports 400-600 µs total for data under 100 KB.
// Our target band is the same order: hundreds of microseconds.
func TestCalibrationSmallSizeBaseOverhead(t *testing.T) {
	s := newSys(t, 64<<20, noPrefetch)
	res := runRegular(t, s, 96<<10) // 24 pages
	if res.KernelTime < 100*sim.Microsecond || res.KernelTime > 2*sim.Millisecond {
		t.Errorf("96KB page-touch = %v, want hundreds of µs", res.KernelTime)
	}
}

// Calibration: explicit transfer beats no-prefetch UVM by an order of
// magnitude at moderate sizes (paper Fig. 1).
func TestCalibrationExplicitVsUVM(t *testing.T) {
	bytes := int64(32 << 20)
	uvm := runRegular(t, newSys(t, 256<<20, noPrefetch), bytes)

	s2 := newSys(t, 256<<20, noPrefetch)
	k, err := workloads.PageTouchRegular(s2, bytes, workloads.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := s2.RunExplicit(k)
	if err != nil {
		t.Fatal(err)
	}
	if explicit.Faults != 0 {
		t.Errorf("explicit run faulted %d times", explicit.Faults)
	}
	ratio := float64(uvm.TotalTime) / float64(explicit.TotalTime)
	if ratio < 4 {
		t.Errorf("UVM/explicit ratio = %.1f (uvm=%v explicit=%v), want >= 4",
			ratio, uvm.TotalTime, explicit.TotalTime)
	}
	t.Logf("uvm=%v explicit=%v ratio=%.1fx", uvm.TotalTime, explicit.TotalTime, ratio)
}

// Calibration: prefetching eliminates most faults (paper Table I: >= 64%
// for every workload) and reduces runtime for in-core regular access.
func TestCalibrationPrefetchFaultReduction(t *testing.T) {
	bytes := int64(32 << 20)
	noPf := runRegular(t, newSys(t, 256<<20, noPrefetch), bytes)
	withPf := runRegular(t, newSys(t, 256<<20), bytes)
	// The paper reports 82% for regular access; a strict-51% density tree
	// over a touch-once contiguous pattern has a structural ceiling near
	// 50% (see EXPERIMENTS.md), so the bar here is 30%.
	reduction := 1 - float64(withPf.Faults)/float64(noPf.Faults)
	if reduction < 0.30 {
		t.Errorf("fault reduction = %.2f (no-pf=%d pf=%d), want >= 0.30",
			reduction, noPf.Faults, withPf.Faults)
	}
	if withPf.TotalTime >= noPf.TotalTime {
		t.Errorf("prefetch did not help: %v vs %v", withPf.TotalTime, noPf.TotalTime)
	}
	t.Logf("faults %d -> %d (%.1f%% reduction), time %v -> %v",
		noPf.Faults, withPf.Faults, reduction*100, noPf.TotalTime, withPf.TotalTime)
}

// Oversubscription: random access degrades by an order of magnitude more
// than regular (paper Fig. 9).
func TestCalibrationOversubscriptionRandomVsRegular(t *testing.T) {
	gpuMem := int64(32 << 20)
	bytes := int64(40 << 20) // 125% of GPU memory

	reg := runRegular(t, newSys(t, gpuMem), bytes)

	s := newSys(t, gpuMem)
	k, err := workloads.PageTouchRandom(s, bytes, workloads.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := s.RunUVM(k)
	if err != nil {
		t.Fatal(err)
	}
	if rnd.Evictions <= reg.Evictions {
		t.Errorf("random evictions %d <= regular %d", rnd.Evictions, reg.Evictions)
	}
	ratio := float64(rnd.TotalTime) / float64(reg.TotalTime)
	if ratio < 3 {
		t.Errorf("random/regular oversubscribed ratio = %.1f, want >= 3", ratio)
	}
	t.Logf("regular=%v (evict %d), random=%v (evict %d), ratio=%.1fx",
		reg.TotalTime, reg.Evictions, rnd.TotalTime, rnd.Evictions, ratio)
}

func TestExplicitRefusesOversubscription(t *testing.T) {
	s := newSys(t, 16<<20)
	k, err := workloads.PageTouchRegular(s, 32<<20, workloads.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunExplicit(k); err == nil {
		t.Error("oversubscribed explicit run accepted")
	}
}

func TestWarmSecondRunHasNoFaults(t *testing.T) {
	s := newSys(t, 64<<20)
	k, err := workloads.PageTouchRegular(s, 8<<20, workloads.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.RunUVM(k)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.RunUVM(k)
	if err != nil {
		t.Fatal(err)
	}
	if second.Faults != 0 {
		t.Errorf("warm run faulted %d times", second.Faults)
	}
	if second.TotalTime >= first.TotalTime {
		t.Errorf("warm run %v not faster than cold %v", second.TotalTime, first.TotalTime)
	}
}

func TestTraceRecording(t *testing.T) {
	s := newSys(t, 64<<20, func(c *Config) { c.TraceCapacity = -1; c.PrefetchPolicy = "none" })
	runRegular(t, s, 4<<20)
	if s.Trace() == nil || s.Trace().Count() == 0 {
		t.Fatal("no trace recorded")
	}
	s2 := newSys(t, 64<<20)
	runRegular(t, s2, 4<<20)
	if s2.Trace() != nil {
		t.Error("trace recorded despite being disabled")
	}
}

func TestRunDeltasAreIndependent(t *testing.T) {
	s := newSys(t, 64<<20, noPrefetch)
	r1 := runRegular(t, s, 4<<20)
	k, err := workloads.PageTouchRegular(s, 4<<20, workloads.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.RunUVM(k)
	if err != nil {
		t.Fatal(err)
	}
	// Second kernel touches a fresh range: roughly the same fault count,
	// not cumulative.
	if r2.Faults > 2*r1.Faults {
		t.Errorf("delta accounting broken: r1=%d r2=%d", r1.Faults, r2.Faults)
	}
	if r2.Breakdown.Total() > 2*r1.Breakdown.Total() {
		t.Errorf("breakdown delta broken: %v vs %v", r2.Breakdown.Total(), r1.Breakdown.Total())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (sim.Duration, uint64) {
		s := newSys(t, 64<<20)
		res := runRegular(t, s, 8<<20)
		return res.TotalTime, res.Faults
	}
	t1, f1 := run()
	t2, f2 := run()
	if t1 != t2 || f1 != f2 {
		t.Errorf("non-deterministic: (%v,%d) vs (%v,%d)", t1, f1, t2, f2)
	}
}

func TestSeedChangesOutcomeSlightly(t *testing.T) {
	s1 := newSys(t, 64<<20)
	r1 := runRegular(t, s1, 8<<20)
	s2 := newSys(t, 64<<20, func(c *Config) { c.Seed = 7 })
	r2 := runRegular(t, s2, 8<<20)
	if r1.TotalTime == r2.TotalTime {
		t.Log("warning: different seeds produced identical times (possible but unlikely)")
	}
	// Both must still complete with full residency.
	if s1.ResidentPages() != s2.ResidentPages() {
		t.Error("seed changed functional outcome")
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	bad := DefaultConfig(64 << 20)
	bad.PrefetchPolicy = "bogus"
	if _, err := NewSystem(bad); err == nil {
		t.Error("bogus prefetch policy accepted")
	}
	bad = DefaultConfig(64 << 20)
	bad.EvictPolicy = "bogus"
	if _, err := NewSystem(bad); err == nil {
		t.Error("bogus evict policy accepted")
	}
	bad = DefaultConfig(64 << 20)
	bad.VABlockSize = 3 << 20
	if _, err := NewSystem(bad); err == nil {
		t.Error("non-power-of-two VABlock accepted")
	}
}

func TestBreakdownPhasesAllCharged(t *testing.T) {
	s := newSys(t, 16<<20, noPrefetch)
	res := runRegular(t, s, 24<<20) // oversubscribed -> eviction phase too
	for _, p := range stats.Phases() {
		if res.Breakdown.Get(p) == 0 {
			t.Errorf("phase %v never charged", p)
		}
	}
}

func TestDeadlockReportsDiagnostics(t *testing.T) {
	// A kernel touching a page outside any range panics in Block(); this
	// test instead checks the error path for an unstaged explicit run is
	// informative — the UVM path cannot deadlock by construction, so we
	// simulate the report by checking error text of a failing prestage.
	s := newSys(t, 16<<20)
	k, err := workloads.PageTouchRegular(s, 32<<20, workloads.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.RunExplicit(k)
	if err == nil || !strings.Contains(err.Error(), "blocks") {
		t.Errorf("error not informative: %v", err)
	}
}

func TestAccessorSurface(t *testing.T) {
	s := newSys(t, 64<<20)
	if s.Config().GPUMemoryBytes != 64<<20 {
		t.Error("Config accessor wrong")
	}
	if s.Space() == nil || s.Engine() == nil || s.Driver() == nil || s.PMA() == nil {
		t.Error("nil accessor")
	}
}

// Access-aware eviction ranks victims by the GPU access counters, so
// NewSystem turns the counters on for it: a config that forgets the flag
// runs exactly like one that sets it, and neither degrades to LRU.
func TestAccessAwareEnablesAccessCounters(t *testing.T) {
	run := func(evict string, counters bool) *RunResult {
		s := newSys(t, 16<<20, func(c *Config) {
			c.EvictPolicy = evict
			c.GPU.AccessCounters = counters
		})
		if !s.Config().GPU.AccessCounters && strings.HasPrefix(evict, "access-aware") {
			t.Errorf("%s: access counters left off", evict)
		}
		k, err := workloads.PageTouchRandom(s, 24<<20, workloads.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunUVM(k)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, evict := range []string{"access-aware", "access-aware+thrash"} {
		implicit, explicit := run(evict, false), run(evict, true)
		if implicit.TotalTime != explicit.TotalTime || implicit.Evictions != explicit.Evictions {
			t.Errorf("%s: without flag total=%v evictions=%d, with flag total=%v evictions=%d",
				evict, implicit.TotalTime, implicit.Evictions, explicit.TotalTime, explicit.Evictions)
		}
	}
	aware, lru := run("access-aware", false), run("lru", false)
	if aware.TotalTime == lru.TotalTime && aware.Evictions == lru.Evictions {
		t.Errorf("access-aware ran exactly like LRU (total=%v evictions=%d)", aware.TotalTime, aware.Evictions)
	}
}
