package workloads

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"uvmsim/internal/gpusim"
	"uvmsim/internal/mem"
)

// TraceAccess is one access of an externally captured page trace.
type TraceAccess struct {
	// Page is the gap-free page index within the traced application's
	// footprint (the same normalization the paper's Fig. 7 uses).
	Page int64
	// Write marks store accesses.
	Write bool
}

// ParseTrace reads a page-access trace in either of two formats:
//
//   - two CSV columns "page_index,rw" where rw is r/w (or 0/1), with an
//     optional header line;
//   - the `uvmreport -csv` export (seq,time_ns,kind,page_index,block,
//     range), from which fault rows are replayed in order.
//
// Lines starting with '#' are skipped.
func ParseTrace(r io.Reader) ([]TraceAccess, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []TraceAccess
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		switch {
		case len(fields) >= 6: // uvmreport -csv export
			if fields[0] == "seq" {
				continue // header
			}
			if fields[2] != "fault" {
				continue
			}
			page, err := strconv.ParseInt(fields[3], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("workloads: trace line %d: bad page %q", lineNo, fields[3])
			}
			out = append(out, TraceAccess{Page: page})
		case len(fields) == 2:
			if fields[0] == "page_index" || fields[0] == "page" {
				continue // header
			}
			page, err := strconv.ParseInt(strings.TrimSpace(fields[0]), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("workloads: trace line %d: bad page %q", lineNo, fields[0])
			}
			rw := strings.TrimSpace(fields[1])
			write := rw == "w" || rw == "W" || rw == "1"
			if !write && rw != "r" && rw != "R" && rw != "0" {
				return nil, fmt.Errorf("workloads: trace line %d: bad rw %q", lineNo, rw)
			}
			out = append(out, TraceAccess{Page: page, Write: write})
		default:
			return nil, fmt.Errorf("workloads: trace line %d: unrecognized format %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("workloads: trace contains no accesses")
	}
	return out, nil
}

// Replay builds a kernel that re-issues a captured page trace against a
// single managed allocation sized to the trace's footprint; a trace whose
// highest page would overflow the allocation size or pass
// mem.MaxVABlocks fails with mem.ErrSpaceTooLarge. The trace's
// access order is preserved within each warp; warps partition the trace
// into consecutive chunks, mirroring how the original accesses were
// spread across compute units.
func Replay(a Allocator, accesses []TraceAccess, p Params) (*gpusim.Kernel, error) {
	p = p.normalized()
	if len(accesses) == 0 {
		return nil, fmt.Errorf("workloads: empty trace")
	}
	var maxPage int64 = -1
	for i, acc := range accesses {
		if acc.Page < 0 {
			return nil, fmt.Errorf("workloads: trace access %d has negative page", i)
		}
		if acc.Page > maxPage {
			maxPage = acc.Page
		}
	}
	if maxPage >= math.MaxInt64/mem.PageSize {
		return nil, fmt.Errorf("workloads: trace page %d: %w", maxPage, mem.ErrSpaceTooLarge)
	}
	r, err := a.MallocManaged((maxPage+1)*mem.PageSize, "replay")
	if err != nil {
		return nil, err
	}
	accs := make([]gpusim.Access, len(accesses))
	for i, acc := range accesses {
		accs[i] = gpusim.Access{Page: pageAt(r, acc.Page), Write: acc.Write}
	}
	return assemble("replay", sliceWarps(accs, p), p), nil
}
