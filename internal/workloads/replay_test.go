package workloads

import (
	"errors"
	"strings"
	"testing"

	"uvmsim/internal/mem"
)

func TestParseTraceTwoColumn(t *testing.T) {
	in := strings.NewReader("page_index,rw\n0,r\n5,w\n3,0\n7,1\n# comment\n\n")
	accs, err := ParseTrace(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []TraceAccess{{0, false}, {5, true}, {3, false}, {7, true}}
	if len(accs) != len(want) {
		t.Fatalf("accs = %v", accs)
	}
	for i := range want {
		if accs[i] != want[i] {
			t.Fatalf("accs[%d] = %v, want %v", i, accs[i], want[i])
		}
	}
}

func TestParseTraceCSVExport(t *testing.T) {
	in := strings.NewReader(strings.Join([]string{
		"seq,time_ns,kind,page_index,block,range",
		"1,100,fault,42,0,0",
		"2,150,prefetch,43,0,0", // skipped
		"3,200,evict,0,0,0",     // skipped
		"4,250,fault,17,0,0",
	}, "\n"))
	accs, err := ParseTrace(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) != 2 || accs[0].Page != 42 || accs[1].Page != 17 {
		t.Fatalf("accs = %v", accs)
	}
}

func TestParseTraceErrors(t *testing.T) {
	for name, in := range map[string]string{
		"empty":     "",
		"bad page":  "x,r\n",
		"bad rw":    "3,q\n",
		"bad shape": "1,2,3\n",
	} {
		if _, err := ParseTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReplayBuildsKernel(t *testing.T) {
	al := newAlloc()
	accs := []TraceAccess{{Page: 0, Write: true}, {Page: 99}, {Page: 5, Write: true}}
	k, err := Replay(al, accs, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	r := al.s.Ranges()[0]
	if r.Pages != 100 { // footprint sized to max page + 1
		t.Errorf("allocation = %d pages, want 100", r.Pages)
	}
	distinct, writes, total := touchedPages(k)
	if total != 3 || writes != 2 || len(distinct) != 3 {
		t.Errorf("total=%d writes=%d distinct=%d", total, writes, len(distinct))
	}
	// Order preserved within the single warp.
	w := k.Blocks[0].Warps[0]
	if w.At(0).Page != r.StartPage || w.At(1).Page != r.StartPage+99 {
		t.Error("trace order not preserved")
	}
}

func TestReplayRejectsBadTraces(t *testing.T) {
	al := newAlloc()
	if _, err := Replay(al, nil, DefaultParams()); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := Replay(al, []TraceAccess{{Page: -1}}, DefaultParams()); err == nil {
		t.Error("negative page accepted")
	}
}

// A sparse trace names a page so high that its single allocation would
// need millions of VABlocks; Replay must refuse it up front with the
// named ceiling error instead of building the blocks.
func TestReplayRejectsSparseTrace(t *testing.T) {
	for _, in := range []string{
		"0,r\n10000000000,r\n",
		"0,r\n9223372036854775807,w\n", // (page+1)*PageSize overflows int64
	} {
		accs, err := ParseTrace(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Replay(newAlloc(), accs, DefaultParams()); !errors.Is(err, mem.ErrSpaceTooLarge) {
			t.Errorf("%q: err = %v, want mem.ErrSpaceTooLarge", in, err)
		}
	}
}

// Round trip: a `uvmreport -csv` export of a simulated run parses and
// replays into a kernel covering the same pages.
func TestReplayRoundTripFormat(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("seq,time_ns,kind,page_index,block,range\n")
	for i := 0; i < 64; i++ {
		sb.WriteString("1,0,fault,")
		sb.WriteString(strings.TrimSpace(string(rune('0' + i%10))))
		sb.WriteString(",0,0\n")
	}
	accs, err := ParseTrace(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) != 64 {
		t.Fatalf("parsed %d", len(accs))
	}
	k, err := Replay(newAlloc(), accs, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if k.TotalAccesses() != 64 {
		t.Errorf("accesses = %d", k.TotalAccesses())
	}
}
