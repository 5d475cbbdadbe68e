package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so tail must sort
	}
	return xs
}

func TestTailReportsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		p          float64
		wantValue  float64
		wantUsed   float64
		wantBeyond int
	}{
		{n: 1000, p: 90, wantValue: 900, wantUsed: 90, wantBeyond: 100},
		{n: 100, p: 90, wantValue: 90, wantUsed: 90, wantBeyond: 10},
		{n: 50, p: 90, wantValue: 40, wantUsed: 80, wantBeyond: 10},              // p90 has 5 beyond: lowered to p80
		{n: 21, p: 90, wantValue: 11, wantUsed: 100 * 11.0 / 21, wantBeyond: 10}, // just above the median
		{n: 15, p: 90, wantValue: 8, wantUsed: 50, wantBeyond: 7},                // would fall below the median
		{n: 4, p: 90, wantValue: 2.5, wantUsed: 50, wantBeyond: 2},
	} {
		v, used, beyond := tail(seq(tc.n), tc.p)
		if v != tc.wantValue || math.Abs(used-tc.wantUsed) > 1e-9 || beyond != tc.wantBeyond {
			t.Errorf("tail(n=%d, p%g) = %g at p%.2f with %d beyond; want %g at p%.2f with %d beyond",
				tc.n, tc.p, v, used, beyond, tc.wantValue, tc.wantUsed, tc.wantBeyond)
		}
	}
}

func TestTimingPrintsSampleCount(t *testing.T) {
	r := newResult()
	out := captureStdout(t, func() { r.timing("cell_ms_p90", "ms", seq(50), 90) })
	if !strings.Contains(out, "p80.0, n=50, 10 beyond") {
		t.Errorf("timing line %q does not state the percentile used and the sample count", out)
	}
}

func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	rd, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = wr
	fn()
	os.Stdout = old
	wr.Close()
	var buf bytes.Buffer
	buf.ReadFrom(rd)
	return buf.String()
}

func TestCheckOutputsDetectsTamperedRow(t *testing.T) {
	ref := []byte("footprint_pct,prefetch\n50,density\n100,density\n")
	counts := map[string]uint64{"sim.events": 7}
	tampered := bytes.Replace(ref, []byte("100,"), []byte("101,"), 1)

	r := newResult()
	checkOutputs(r, "sgemm-cells", 99, ref, [][]byte{ref, ref}, []map[string]uint64{counts, counts}, 2)
	if r.failed != 0 {
		t.Fatalf("identical passes reported %d failures: %v", r.failed, r.problems)
	}

	r = newResult()
	checkOutputs(r, "sgemm-cells", 99, ref, [][]byte{ref, tampered}, []map[string]uint64{counts, counts}, 2)
	if r.failed != 2 || len(r.problems) != 1 || !strings.Contains(r.problems[0], "pass 1") {
		t.Errorf("tampered row: failed=%d problems=%v; want the 2 cells of pass 1 failed", r.failed, r.problems)
	}

	r = newResult()
	drifted := map[string]uint64{"sim.events": 8}
	checkOutputs(r, "sgemm-cells", 99, ref, [][]byte{ref, ref}, []map[string]uint64{counts, drifted}, 2)
	if r.failed != 2 {
		t.Errorf("drifted count: failed=%d; want 2", r.failed)
	}

	// At the default seed the reference itself must match the recording.
	r = newResult()
	checkOutputs(r, "sgemm-cells", defaultSeed, ref, [][]byte{ref}, []map[string]uint64{counts}, 2)
	if r.failed != 4 {
		t.Errorf("unrecorded tables and counts at the default seed: failed=%d; want 4", r.failed)
	}
}

// pb is a minimal protobuf encoder for building a fixed test profile.
type pb []byte

func (b pb) varint(field int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(field int, v []byte) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func TestProfileBucketing(t *testing.T) {
	names := []string{"",
		"uvmsim/internal/tree.(*Planner).Plan",
		"uvmsim/internal/mem.(*AddressSpace).IsResident",
		"internal/runtime/maps.(*Map).getWithKeySmall",
		"runtime.mallocgc",
		"net/http.(*conn).serve",
		"encoding/json.Marshal",
		"uvmsim/internal/serve/client.(*Client).Sim",
		"main.main",
	}
	var prof pb
	for i := 1; i < len(names); i++ {
		// function i at location i; an inlined caller frame follows the leaf.
		prof = prof.bytes(5, pb{}.varint(1, uint64(i)).varint(2, uint64(i)))
		prof = prof.bytes(4, pb{}.varint(1, uint64(i)).
			bytes(4, pb{}.varint(1, uint64(i))).
			bytes(4, pb{}.varint(1, uint64(len(names)-1))))
	}
	// Samples: packed location ids (leaf first) and values [count, ns].
	samples := map[int]int{1: 10, 2: 20, 3: 5, 4: 15, 5: 3, 6: 2, 7: 4, 8: 41}
	for loc := 1; loc < len(names); loc++ {
		locs := binary.AppendUvarint(nil, uint64(loc))
		locs = binary.AppendUvarint(locs, uint64(len(names)-1))
		vals := binary.AppendUvarint(nil, uint64(samples[loc]))
		vals = binary.AppendUvarint(vals, uint64(samples[loc])*1e7)
		prof = prof.bytes(2, pb{}.bytes(1, locs).bytes(2, vals))
	}
	for _, n := range names {
		prof = prof.bytes(6, []byte(n))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof)
	zw.Close()

	flat, err := flatSamples(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if flat["uvmsim/internal/mem.(*AddressSpace).IsResident"] != 20 || flat["main.main"] != 41 {
		t.Fatalf("flat samples = %v", flat)
	}
	shares := bucketShares(flat)
	want := map[string]float64{"tree": 10, "mem": 20, "maps": 5, "gc": 15, "net_http": 3, "json": 2, "serve": 4, "gpusim": 0}
	for b, w := range want {
		if math.Abs(shares[b]-w) > 1e-9 {
			t.Errorf("bucket %s = %.2f%%, want %.2f%%", b, shares[b], w)
		}
	}
	if len(shares) != len(profBuckets) {
		t.Errorf("%d buckets reported, want %d", len(shares), len(profBuckets))
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "cell", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
	}
	self := selfTimes(spans)
	if self[1] != time.Duration(100-50-10) {
		t.Errorf("self time of the root = %d, want 40", self[1])
	}
	if got := remainderFrac(spans, "cell"); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("remainder = %g, want 0.4", got)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists the program
// reports in step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, e2eMetrics)
	check("per_layer", bj.PerLayer, layerMetrics)
	if len(bj.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloadList))
	}
	for i, w := range workloadList {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, bj.Workloads[i].Name, w.name)
		}
	}
}
