// Command benchjson converts `go test -bench -benchmem` output into a
// machine-readable JSON document, and compares two such documents as a
// regression gate (scripts/bench_check.sh).
//
// Parse mode (default) reads benchmark output on stdin:
//
//	go test -bench=. -benchmem -run='^$' ./... | benchjson -o results/bench.json
//
// Compare mode gates a current document against a committed baseline:
//
//	benchjson -compare baseline.json current.json \
//	    -alloc-guard 'BinBatch|Plan' -alloc-tol 10 \
//	    -time-guard 'BinBatch|Plan' -time-tol 10
//
// Allocation counts are deterministic, so the alloc gate is the strict
// contract; time/op is a machine-dependent backstop with its own
// tolerance. A guarded benchmark missing from the current document fails
// the gate (deleting a benchmark must not silently drop its guard).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Bench is one benchmark measurement.
type Bench struct {
	Name        string  `json:"name"` // pkg-qualified: uvmsim/internal/tree.BenchmarkPlan
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Doc is the on-disk document.
type Doc struct {
	Generated string  `json:"generated"`
	Go        string  `json:"go"`
	Benches   []Bench `json:"benchmarks"`
}

func main() {
	var (
		out        = flag.String("o", "", "output file for parse mode (default stdout)")
		compare    = flag.Bool("compare", false, "compare two documents: benchjson -compare base.json cur.json")
		allocTol   = flag.Float64("alloc-tol", 10, "allowed allocs/op regression in percent")
		timeTol    = flag.Float64("time-tol", 10, "allowed ns/op regression in percent")
		allocGuard = flag.String("alloc-guard", ".", "regexp of benchmarks whose allocs/op are gated")
		timeGuard  = flag.String("time-guard", ".", "regexp of benchmarks whose ns/op are gated")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("compare mode needs exactly two files, got %d", flag.NArg())
		}
		failures := compareDocs(load(flag.Arg(0)), load(flag.Arg(1)),
			regexp.MustCompile(*allocGuard), regexp.MustCompile(*timeGuard),
			*allocTol, *timeTol, os.Stdout)
		if failures > 0 {
			fatalf("%d benchmark regression(s) beyond tolerance", failures)
		}
		return
	}
	doc := Doc{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Go:        runtime.Version(),
		Benches:   parse(os.Stdin),
	}
	if len(doc.Benches) == 0 {
		fatalf("no benchmark lines found on stdin")
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatalf("encode: %v", err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(doc.Benches), *out)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}

// parse extracts benchmark result lines, tracking the `pkg:` header go
// test prints before each package's benchmarks. Repeated measurements of
// one benchmark (-count=N) collapse to a single entry: minimum ns/op
// (the least-noise estimate of the code's true cost) and maximum
// allocs/op and B/op (the conservative bound for the alloc gate).
func parse(r *os.File) []Bench {
	var out []Bench
	index := make(map[string]int)
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		// Benchmark lines: name, N, ns/op value+unit pairs.
		if len(f) < 3 {
			continue
		}
		b := Bench{Name: trimProcs(f[0])}
		if pkg != "" {
			b.Name = pkg + "." + b.Name
		}
		n, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		b.Iterations = n
		ok := false
		for i := 2; i+1 < len(f); i += 2 {
			val, unit := f[i], f[i+1]
			switch unit {
			case "ns/op":
				b.NsPerOp, err = strconv.ParseFloat(val, 64)
				ok = err == nil
			case "B/op":
				b.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
			case "allocs/op":
				b.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
			}
		}
		if !ok {
			continue
		}
		if i, seen := index[b.Name]; seen {
			prev := &out[i]
			prev.Iterations += b.Iterations
			prev.NsPerOp = min(prev.NsPerOp, b.NsPerOp)
			prev.BytesPerOp = max(prev.BytesPerOp, b.BytesPerOp)
			prev.AllocsPerOp = max(prev.AllocsPerOp, b.AllocsPerOp)
			continue
		}
		index[b.Name] = len(out)
		out = append(out, b)
	}
	return out
}

// trimProcs strips the -N suffix go test appends to every benchmark
// name when GOMAXPROCS is N > 1 (BenchmarkPlan-8,
// BenchmarkDriverService/obs-off-8), so documents recorded on hosts with
// different core counts name the same benchmark alike. A benchmark whose
// own name ends in -<digits> cannot be told apart from the suffix; none
// of this repository's benchmarks is named that way.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

func load(path string) Doc {
	buf, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	var d Doc
	if err := json.Unmarshal(buf, &d); err != nil {
		fatalf("%s: %v", path, err)
	}
	return d
}

// compareDocs prints a benchstat-style table and returns the number of
// gated regressions.
func compareDocs(base, cur Doc, allocGuard, timeGuard *regexp.Regexp, allocTol, timeTol float64, w *os.File) int {
	curByName := make(map[string]Bench, len(cur.Benches))
	for _, b := range cur.Benches {
		curByName[b.Name] = b
	}
	failures := 0
	fmt.Fprintf(w, "%-60s %14s %14s %8s\n", "benchmark", "old", "new", "delta")
	for _, b := range base.Benches {
		gateAlloc := allocGuard.MatchString(b.Name)
		gateTime := timeGuard.MatchString(b.Name)
		c, ok := curByName[b.Name]
		if !ok {
			if gateAlloc || gateTime {
				fmt.Fprintf(w, "%-60s guarded benchmark missing from current run: FAIL\n", b.Name)
				failures++
			}
			continue
		}
		failures += gauge(w, b.Name+" [allocs/op]", float64(b.AllocsPerOp), float64(c.AllocsPerOp), allocTol, gateAlloc)
		failures += gauge(w, b.Name+" [ns/op]", b.NsPerOp, c.NsPerOp, timeTol, gateTime)
	}
	return failures
}

// gauge prints one metric row and returns 1 when a gated regression
// exceeds tol percent.
func gauge(w *os.File, label string, old, cur float64, tol float64, gated bool) int {
	delta := 0.0
	switch {
	case old > 0:
		delta = (cur - old) / old * 100
	case cur > 0:
		delta = 100 // from zero to nonzero is always a full regression
	}
	mark := ""
	fail := 0
	if gated && delta > tol {
		mark = "  FAIL (>" + strconv.FormatFloat(tol, 'f', -1, 64) + "%)"
		fail = 1
	} else if !gated {
		mark = "  (ungated)"
	}
	fmt.Fprintf(w, "%-60s %14.1f %14.1f %+7.1f%%%s\n", label, old, cur, delta, mark)
	return fail
}
