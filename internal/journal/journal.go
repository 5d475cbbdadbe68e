// Package journal implements the crash-safe sweep journal: an
// append-only JSONL file with one record per finished cell, keyed by a
// hash of the cell's full configuration label. A killed sweep leaves a
// journal whose completed records replay on resume, so hours of
// deterministic simulation survive a SIGINT or OOM kill.
//
// Crash safety comes from three properties:
//
//   - Each record is one JSON line issued as a single Write to an
//     O_APPEND descriptor and fsynced, so records from concurrent
//     workers never interleave and a completed record survives a crash.
//   - A crash mid-append can only truncate the final line; Load detects
//     the torn tail (JSON parse failure) and discards it, treating that
//     cell as never finished.
//   - Completed records carry a digest of their result row; a record
//     whose digest does not match its row is discarded, so disk
//     corruption degrades to re-running a cell, never to emitting a
//     corrupt result.
//
// Compact rewrites a journal through the atomic temp-file+rename path so
// a resumed sweep can fold retries and drop stale records without any
// window where the journal is invalid on disk.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"sync"

	"uvmsim/internal/atomicio"
	"uvmsim/internal/confighash"
)

// Record is one journal line: the terminal status of one cell attempt.
type Record struct {
	// Label is the cell's full replay recipe (every knob plus the seed).
	Label string `json:"label"`
	// Hash identifies the cell configuration (see Hash); resume matches
	// records to cells by this key, so edits to the spec simply orphan
	// the records they invalidate.
	Hash string `json:"hash"`
	// Seed is the simulation seed, duplicated out of the label for
	// tooling.
	Seed uint64 `json:"seed"`
	// Scope carries the cell identity the label leaves out.
	Scope
	// Status is the govern.State string: completed, cancelled, deadline,
	// livelock, panicked, failed.
	Status string `json:"status"`
	// Attempt counts executions of this cell so far (1 = first run).
	Attempt int `json:"attempt,omitempty"`
	// Err carries the failure message for non-completed records.
	Err string `json:"err,omitempty"`
	// Row holds the rendered result-table cells for completed records.
	Row []string `json:"row,omitempty"`
	// Digest authenticates Row (see RowDigest).
	Digest string `json:"digest,omitempty"`
}

// Scope is the part of a cell's identity its label leaves out: GPU
// memory and the deterministic budgets. They are sweep-wide settings
// that stay out of labels so every historical label and confighash
// survives, which means two different cells can share a hash. Resume
// therefore reuses a record only when its Scope equals the cell's. A
// record written before Scope existed decodes with zero GPU memory,
// matches no cell, and reruns.
type Scope struct {
	GPUMemoryBytes int64  `json:"gpu_mem_bytes,omitempty"`
	SimDeadlineNs  int64  `json:"sim_deadline_ns,omitempty"`
	MaxEvents      uint64 `json:"max_events,omitempty"`
	LivelockWindow uint64 `json:"livelock_window,omitempty"`
}

// Hash derives the configuration key for a cell label via the shared
// confighash format (first 16 hex characters of SHA-256), so journal
// records and the serving layer's result cache address identical
// configurations with identical keys.
func Hash(label string) string { return confighash.Sum(label) }

// RowDigest hashes a rendered result row so Load can reject records
// whose row bytes were damaged after the append.
func RowDigest(row []string) string { return confighash.Rows(row) }

// Writer appends records to a journal file. Safe for concurrent use by
// sweep workers.
type Writer struct {
	mu sync.Mutex
	f  *os.File
}

// Create opens a fresh journal at path, truncating any previous one.
func Create(path string) (*Writer, error) {
	return open(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC)
}

// Open opens an existing journal for appending (creating it when
// missing) — the resume path.
func Open(path string) (*Writer, error) {
	return open(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND)
}

func open(path string, flags int) (*Writer, error) {
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	return &Writer{f: f}, nil
}

// Append writes one record as a single JSONL line and syncs it to
// stable storage before returning, so a record that Append accepted
// survives any subsequent crash.
func (w *Writer) Append(r Record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(line); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close closes the underlying file.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// Load reads every intact record from path. A torn or corrupt line
// (crash mid-append) ends the scan: everything before it is returned,
// everything after is discarded, because a damaged middle means append
// ordering can no longer be trusted. Completed records with a row whose
// digest does not verify are dropped individually. A missing file
// yields no records and no error.
func Load(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			break // torn tail from a crash: keep what parsed, drop the rest
		}
		if len(r.Row) > 0 && r.Digest != RowDigest(r.Row) {
			continue // damaged row: forget this record, the cell reruns
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil && err != bufio.ErrTooLong {
		return out, err
	}
	return out, nil
}

// Latest folds records into a last-record-wins map by cell hash — the
// view resume plans from (a retry's record supersedes the failure it
// retried).
func Latest(records []Record) map[string]Record {
	m := make(map[string]Record, len(records))
	for _, r := range records {
		m[r.Hash] = r
	}
	return m
}

// Compact rewrites path to contain exactly records, through the atomic
// temp-file+rename path, so resumed sweeps can drop superseded attempts
// without a moment where the on-disk journal is partial.
func Compact(path string, records []Record) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		for _, r := range records {
			line, err := json.Marshal(r)
			if err != nil {
				return err
			}
			if _, err := w.Write(append(line, '\n')); err != nil {
				return err
			}
		}
		return nil
	})
}
