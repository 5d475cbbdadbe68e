package main

import (
	"bytes"
	"context"
	"testing"

	"uvmsim/internal/sweep"
)

// TestDirectCellsMatchSweep pins runCell to sweep's own cell: the rows
// the direct NewSystem/build/RunUVM path renders must be byte-identical
// to a -jobs 1 sweep of the same cells, including a K=4 cell.
func TestDirectCellsMatchSweep(t *testing.T) {
	k4 := spec("hpgmg", 16, 3, 2.0)
	k4.GPUs, k4.Migration = []int{4}, []string{"access-counter"}
	specs := []*sweep.Spec{spec("stream", 16, 3, 0.25, 1.5), k4}
	tr := newTracer()
	p, err := runCellPass(specs, tr)
	if err != nil {
		t.Fatal(err)
	}
	ref, walls, err := referenceSweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.csv, ref) {
		t.Fatalf("direct rows differ from the sweep:\n%s\n---\n%s", p.csv, ref)
	}
	if len(walls) != len(p.cells) || len(p.cells) != 3 {
		t.Fatalf("%d sweep walls for %d direct cells, want 3 each", len(walls), len(p.cells))
	}
	if p.counts["sim.events"] == 0 || p.counts["multigpu.remote_accesses"]+p.counts["multigpu.migrations"] == 0 {
		t.Errorf("counts missing core or multi-GPU work: %v", p.counts)
	}
	if n := len(byName(tr.snapshot(), "core.RunUVM")); n != 3 {
		t.Errorf("%d RunUVM spans, want 3", n)
	}
}

// TestFleetRoundMatchesReference runs one traced fleet round on a few
// cells: two workers, two nodes and the tier share the timing state, so
// under -race this also checks its synchronization.
func TestFleetRoundMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("brings up a loopback fleet")
	}
	s := spec("stream", 16, 5, 0.25, 0.5)
	s.Replay = []string{"batch", "once"}
	specs := []*sweep.Spec{s}
	ref, _, err := referenceSweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	ft, tr := newFleetTimes(), newTracer()
	fr, err := runFleetRound(context.Background(), spec("stream", 16, 5, 0.1), specs, ft, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.csvs) != 1+fleetWarmPasses {
		t.Fatalf("%d passes, want %d", len(fr.csvs), 1+fleetWarmPasses)
	}
	for i, csv := range fr.csvs {
		if !bytes.Equal(csv, ref) {
			t.Errorf("pass %d merged table differs from the -jobs 1 sweep:\n%s\n---\n%s", i, csv, ref)
		}
	}
	cells := 4
	if len(ft.miss) != cells || len(ft.hit) != cells*fleetWarmPasses || ft.failed != 0 {
		t.Errorf("timed %d misses and %d hits (%d failed), want %d and %d", len(ft.miss), len(ft.hit), ft.failed, cells, cells*fleetWarmPasses)
	}
	c := fr.counts
	if c["serve.cache_misses"] != uint64(cells) || c["serve.cache_hits"] != uint64(cells*fleetWarmPasses) ||
		c["dist_leases_granted_total"] != uint64(cells*(1+fleetWarmPasses)) || c["dist_retries_total"] != 0 {
		t.Errorf("round counts = %v", c)
	}
	spans := tr.snapshot()
	if n, want := len(byName(spans, "fleet.cell")), 1+cells*(1+fleetWarmPasses); n != want {
		t.Errorf("%d fleet.cell spans, want %d (warm-up cell included)", n, want)
	}
	if len(ft.waitMs()) == 0 {
		t.Error("no tier request was matched to its node handler time")
	}
}

// byName collects the durations, in milliseconds, of spans named name.
func byName(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}
