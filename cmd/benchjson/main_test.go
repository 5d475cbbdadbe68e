package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestTrimProcs(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"BenchmarkPlan", "BenchmarkPlan"},
		{"BenchmarkPlan-8", "BenchmarkPlan"},
		{"BenchmarkPlan-128", "BenchmarkPlan"},
		{"BenchmarkDriverService/obs-off", "BenchmarkDriverService/obs-off"},
		{"BenchmarkDriverService/obs-off-2", "BenchmarkDriverService/obs-off"},
		{"BenchmarkDriverService/obs-on-16", "BenchmarkDriverService/obs-on"},
		{"BenchmarkFig1/data=96MiB-4", "BenchmarkFig1/data=96MiB"},
		{"BenchmarkX-", "BenchmarkX-"},
		{"BenchmarkX-2a", "BenchmarkX-2a"},
	} {
		if got := trimProcs(c.in); got != c.want {
			t.Errorf("trimProcs(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestParseMatchesAcrossCoreCounts feeds the same results as printed at
// GOMAXPROCS=1 and GOMAXPROCS=4: both parse to identical names, so a
// baseline recorded on one core gates a run on four.
func TestParseMatchesAcrossCoreCounts(t *testing.T) {
	one := "pkg: uvmsim/internal/core\n" +
		"BenchmarkDriverService/obs-off \t 2\t 292532 ns/op\t 98376 B/op\t 310 allocs/op\n"
	four := "pkg: uvmsim/internal/core\n" +
		"BenchmarkDriverService/obs-off-4 \t 2\t 292532 ns/op\t 98376 B/op\t 310 allocs/op\n"
	a, b := parseString(t, one), parseString(t, four)
	if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
		t.Fatalf("parse at 1 and 4 procs differ: %+v vs %+v", a, b)
	}
	if want := "uvmsim/internal/core.BenchmarkDriverService/obs-off"; a[0].Name != want {
		t.Errorf("name = %q, want %q", a[0].Name, want)
	}
}

func parseString(t *testing.T, s string) []Bench {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	return parse(f)
}
