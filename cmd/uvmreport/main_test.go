package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// uvmreport runs the command in-process and returns its exit code and
// both streams.
func uvmreport(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, strings.NewReader(""), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// A -csv export replays through -access-trace: every fault row becomes
// one replayed access, and the report opens with the replay header.
func TestCSVReplayRoundTrip(t *testing.T) {
	code, csv, summary := uvmreport(t, "-workload", "random", "-footprint", "0.1", "-prefetch", "none", "-csv")
	if code != 0 {
		t.Fatalf("-csv exit %d: %s", code, summary)
	}
	if !strings.HasPrefix(summary, "# random footprint=10% ") {
		t.Errorf("-csv summary = %q", summary)
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "seq,time_ns,kind,page_index,block,range" {
		t.Fatalf("-csv header = %q", lines[0])
	}
	faults := 0
	for _, l := range lines[1:] {
		if strings.Split(l, ",")[2] == "fault" {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("-csv export has no fault rows")
	}

	path := filepath.Join(t.TempDir(), "random.csv")
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errs := uvmreport(t, "-access-trace", path, "-prefetch", "none", "-no-chart")
	if code != 0 {
		t.Fatalf("-access-trace exit %d: %s", code, errs)
	}
	want := fmt.Sprintf("replayed %d accesses over ", faults)
	if !strings.HasPrefix(out, want) {
		t.Fatalf("replay report opens %q, want prefix %q", strings.SplitN(out, "\n", 2)[0], want)
	}
	if l := strings.Split(out, "\n"); !strings.HasPrefix(l[1], "total=") || !strings.HasPrefix(l[2], "breakdown: ") {
		t.Errorf("report lines 2-3 = %q, %q", l[1], l[2])
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	code, out, errs := uvmreport(t, "-workload", "bogus")
	if code == 0 || out != "" || !strings.Contains(errs, `unknown workload "bogus"`) {
		t.Fatalf("exit %d, stdout %q, stderr %q; want a non-zero exit naming the workload", code, out, errs)
	}
}

// A trace naming one page ten billion pages in would need millions of
// VABlocks; it must be refused before any block is built.
func TestSparseTraceRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-access-trace", "-"}, strings.NewReader("0,r\n10000000000,r\n"), &stdout, &stderr)
	if code == 0 || !strings.Contains(stderr.String(), "exceeds the VABlock ceiling") {
		t.Fatalf("exit %d, stderr %q; want the VABlock ceiling error", code, stderr.String())
	}
}

// -progress samples the model while it runs; under -race this proves the
// status line reads it from the simulation goroutine only.
func TestProgress(t *testing.T) {
	code, out, errs := uvmreport(t, "-workload", "random", "-footprint", "1.25", "-gpu-mem", "8",
		"-prefetch", "none", "-progress", "1ms", "-no-chart")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	lines := strings.Split(strings.TrimSpace(errs), "\n")
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, "done: time=") || !strings.Contains(last, "(p50=") {
		t.Errorf("last stderr line = %q, want the done: line", last)
	}
	for _, l := range lines[:len(lines)-1] {
		if !strings.HasPrefix(l, "sim=") {
			t.Errorf("stderr line %q is neither a status nor the done: line", l)
		}
	}
	if !strings.HasPrefix(out, "random: 125% of 8 MiB GPU") {
		t.Errorf("stdout opens %q", strings.SplitN(out, "\n", 2)[0])
	}
}
