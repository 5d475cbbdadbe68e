package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeed is the seed whose outputs are recorded below.
const defaultSeed = 1

// recordedTables are SHA-256 digests of each workload's reference sweep
// tables (CSV, spec order) at the default seed. They pin the simulated
// outputs: a change that moves any simulated number fails the run.
var recordedTables = map[string]string{
	"sgemm-cells":   "d64c4f8dfec8f275d9407b1c073070c28bff5e33e8336e1e152865da405feb3b",
	"oversub-cells": "aa5b2949d5730f26483908bc21b671ec8c376b32edd4fcbe89d85c9e36a606ee",
}

// recordedCounts are SHA-256 digests of one pass's exact per-layer
// counts (countsText) at the default seed.
var recordedCounts = map[string]string{
	"sgemm-cells":   "75bb1e62a6af340cacf3ea20654d34ce18c043718003a84c9e1db352e6583069",
	"oversub-cells": "3f2e995df8e880914ba01f83b811db6307da3235977c2d8bd5f60cae68613d40",
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkOutputs compares every pass's tables and counts with the
// reference sweep, with each other and, at the default seed, with the
// recorded digests. Each mismatching pass counts its cells as failed.
func checkOutputs(r *result, workload string, seed uint64, ref []byte, passCSV [][]byte, passCounts []map[string]uint64, cellsPerPass int) {
	for i, csv := range passCSV {
		if string(csv) != string(ref) {
			r.mismatch(cellsPerPass, "pass %d: tables differ from the -jobs 1 reference sweep (%s vs %s)", i, digest(csv)[:16], digest(ref)[:16])
		}
	}
	for i, c := range passCounts[1:] {
		if a, b := countsText(c), countsText(passCounts[0]); a != b {
			r.mismatch(cellsPerPass, "pass %d: exact counts differ from pass 0:\n%s---\n%s", i+1, a, b)
		}
	}
	if seed != defaultSeed {
		return
	}
	if got, want := digest(ref), recordedTables[workload]; got != want {
		r.mismatch(cellsPerPass, "reference tables digest %s, recorded %s", got, want)
	}
	if got, want := digest([]byte(countsText(passCounts[0]))), recordedCounts[workload]; got != want {
		r.mismatch(cellsPerPass, "counts digest %s, recorded %s", got, want)
	}
}

// fingerprint identifies the host and the code: numbers from two
// fingerprints are not comparable.
func fingerprint() string {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "none"
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, sourceDigest("."))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the Go sources and module files under root, so a
// checkout without git history still identifies the code it measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
