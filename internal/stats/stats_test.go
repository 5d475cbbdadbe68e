package stats

import (
	"strings"
	"testing"
	"testing/quick"

	"uvmsim/internal/sim"
)

func TestBreakdownAccumulation(t *testing.T) {
	var b Breakdown
	b.Add(PhasePreprocess, 100)
	b.Add(PhasePMAAlloc, 200)
	b.Add(PhaseMigrate, 300)
	b.Add(PhaseMap, 50)
	b.Add(PhaseReplay, 25)
	if b.Total() != 675 {
		t.Errorf("Total = %v", b.Total())
	}
	if b.Service() != 550 {
		t.Errorf("Service = %v", b.Service())
	}
	if b.Get(PhaseMigrate) != 300 {
		t.Errorf("Get(migrate) = %v", b.Get(PhaseMigrate))
	}
}

func TestBreakdownMerge(t *testing.T) {
	var a, b Breakdown
	a.Add(PhaseMap, 100)
	b.Add(PhaseMap, 100)
	b.Add(PhaseReplay, 200)
	a.Merge(&b)
	if a.Get(PhaseMap) != 200 || a.Get(PhaseReplay) != 200 {
		t.Error("Merge wrong")
	}
}

func TestBreakdownMergeProperty(t *testing.T) {
	f := func(xs, ys [6]uint32) bool {
		var a, b Breakdown
		for i := 0; i < 6; i++ {
			a.Add(Phase(i), sim.Duration(xs[i]))
			b.Add(Phase(i), sim.Duration(ys[i]))
		}
		want := a.Total() + b.Total()
		a.Merge(&b)
		return a.Total() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPhaseString(t *testing.T) {
	if PhasePreprocess.String() != "preprocess" || PhaseReplay.String() != "replay" {
		t.Error("phase names wrong")
	}
	if !strings.Contains(Phase(99).String(), "99") {
		t.Error("out-of-range phase name")
	}
	if len(Phases()) != int(numPhases) {
		t.Error("Phases() length wrong")
	}
}

func TestBreakdownString(t *testing.T) {
	var b Breakdown
	if b.String() != "empty" {
		t.Error("empty breakdown string")
	}
	b.Add(PhaseMap, 3*sim.Microsecond)
	if !strings.Contains(b.String(), "map=3.00us") {
		t.Errorf("String = %q", b.String())
	}
}

func TestCounterSet(t *testing.T) {
	c := NewCounterSet()
	c.Inc("faults", 10)
	c.Inc("faults", 5)
	c.Inc("evictions", 1)
	if c.Get("faults") != 15 || c.Get("missing") != 0 {
		t.Error("counter values wrong")
	}
	d := NewCounterSet()
	d.Inc("faults", 1)
	c.Merge(d)
	if c.Get("faults") != 16 {
		t.Error("Merge wrong")
	}
	sorted := c.Sorted()
	if len(sorted) != 2 || sorted[0].Name != "evictions" || sorted[1].Name != "faults" {
		t.Errorf("Sorted = %v", sorted)
	}
}

func TestTableText(t *testing.T) {
	tb := NewTable("demo", "size", "time")
	tb.Note = "a note"
	tb.AddRow(1024, 3.14159)
	tb.AddRow("big", 12345.6)
	out := tb.String()
	if !strings.Contains(out, "# demo") || !strings.Contains(out, "# a note") {
		t.Errorf("missing title/note:\n%s", out)
	}
	if !strings.Contains(out, "size") || !strings.Contains(out, "3.1416") {
		t.Errorf("missing content:\n%s", out)
	}
	if !strings.Contains(out, "12346") {
		t.Errorf("large float formatting:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.AddRow(`has,comma`, `has"quote`)
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"has,comma"`) || !strings.Contains(out, `"has""quote"`) {
		t.Errorf("CSV quoting wrong:\n%s", out)
	}
	if !strings.HasPrefix(out, "a,b\n") {
		t.Errorf("CSV header wrong:\n%s", out)
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram stats nonzero")
	}
	for _, d := range []sim.Duration{10, 20, 30, 40} {
		h.Observe(d)
	}
	if h.Count() != 4 || h.Sum() != 100 || h.Mean() != 25 {
		t.Errorf("count=%d sum=%v mean=%v", h.Count(), h.Sum(), h.Mean())
	}
	if h.Min() != 10 || h.Max() != 40 {
		t.Errorf("min=%v max=%v", h.Min(), h.Max())
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	var h Histogram
	r := sim.NewRNG(1)
	for i := 0; i < 10000; i++ {
		h.Observe(sim.Duration(r.Intn(1_000_000)))
	}
	last := sim.Duration(-1)
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < last {
			t.Fatalf("quantiles not monotonic at q=%v: %v < %v", q, v, last)
		}
		last = v
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(5)
	b.Observe(100)
	b.Observe(1)
	a.Merge(&b)
	if a.Count() != 3 || a.Min() != 1 || a.Max() != 100 || a.Sum() != 106 {
		t.Errorf("merged = %v", a.String())
	}
	var empty Histogram
	a.Merge(&empty)
	if a.Count() != 3 {
		t.Error("merging empty changed count")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Append(3, 30)
	s.Append(1, 10)
	s.Append(2, 20)
	if s.Len() != 3 {
		t.Fatal("Len wrong")
	}
	for i, want := range []float64{3, 1, 2} {
		if s.X[i] != want || s.Y[i] != want*10 {
			t.Fatalf("Append order wrong: %+v", s)
		}
	}
}
