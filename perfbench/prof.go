package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profBuckets are the prof.<bucket>_pct metrics, in report order: the
// simulator and fleet packages by name, then runtime and library
// buckets that a profile of this program is known to spend time in.
var profBuckets = []string{
	"tree", "mem", "gpusim", "workloads", "driver", "evict", "multigpu", "sim",
	"inject", "serve", "dist", "cachetier", "gc", "maps", "net_http", "json",
}

// gcPrefixes name the runtime functions that do allocation and garbage
// collection work.
var gcPrefixes = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
	"runtime.memclrNoHeapPointers", "runtime.nextFreeFast", "runtime.heapBits",
	"runtime.gc", "runtime.scanobject", "runtime.scanblock", "runtime.scanstack",
	"runtime.greyobject", "runtime.markBits", "runtime.findObject", "runtime.sweepone",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.wbBuf", "runtime.bulkBarrier",
	"runtime.typePointers", "runtime.(*mspan)", "runtime.(*mheap)", "runtime.(*mcache)",
	"runtime.(*mcentral)", "runtime.(*gcWork)", "runtime.(*gcBits)", "runtime.(*sweepLocked)",
	"runtime.(*gcControllerState)", "runtime.(*pageAlloc)", "runtime.(*scavengerState)",
}

// bucketOf maps a fully qualified function name (as pprof records it)
// onto its profile bucket, or "" when the function belongs to none.
func bucketOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "uvmsim/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, b := range profBuckets[:12] {
			if b == pkg {
				return b
			}
		}
		return ""
	}
	switch {
	case strings.HasPrefix(fn, "runtime.map"), strings.HasPrefix(fn, "internal/runtime/maps."):
		return "maps"
	case strings.HasPrefix(fn, "net/http."):
		return "net_http"
	case strings.HasPrefix(fn, "encoding/json."):
		return "json"
	}
	for _, p := range gcPrefixes {
		if strings.HasPrefix(fn, p) {
			return "gc"
		}
	}
	return ""
}

// bucketShares turns flat per-function sample counts into each bucket's
// percentage of all samples. Every bucket is present, zero when unused.
func bucketShares(flat map[string]int64) map[string]float64 {
	var total int64
	per := make(map[string]int64)
	for fn, n := range flat {
		total += n
		if b := bucketOf(fn); b != "" {
			per[b] += n
		}
	}
	out := make(map[string]float64, len(profBuckets))
	for _, b := range profBuckets {
		out[b] = 100 * frac(float64(per[b]), float64(total))
	}
	return out
}

// flatSamples decodes a gzipped runtime/pprof CPU profile and returns
// the sample count of each leaf function (flat samples; for inlined
// frames the innermost function). It reads only the profile.proto
// fields it needs, so it has no dependency outside the standard library.
func flatSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []sample
		locFn    = map[uint64]uint64{} // location id -> leaf function id
		fnName   = map[uint64]int64{}  // function id -> string table index
		strtab   []string
		fieldErr error
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) {
		switch field {
		case 2: // Profile.sample
			var s sample
			fieldErr = errors.Join(fieldErr, protoFields(b, func(f int, v uint64, b []byte) {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
			}))
			samples = append(samples, s)
		case 4: // Profile.location
			var id, fn uint64
			first := true
			fieldErr = errors.Join(fieldErr, protoFields(b, func(f int, v uint64, b []byte) {
				switch f {
				case 1:
					id = v
				case 4: // Location.line; the first entry is the innermost frame
					if first {
						first = false
						fieldErr = errors.Join(fieldErr, protoFields(b, func(f int, v uint64, _ []byte) {
							if f == 1 {
								fn = v
							}
						}))
					}
				}
			}))
			locFn[id] = fn
		case 5: // Profile.function
			var id uint64
			var name int64
			fieldErr = errors.Join(fieldErr, protoFields(b, func(f int, v uint64, _ []byte) {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}))
			fnName[id] = name
		case 6: // Profile.string_table
			strtab = append(strtab, string(b))
		}
	})
	if err = errors.Join(err, fieldErr); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	flat := make(map[string]int64)
	for _, s := range samples {
		if len(s.locs) == 0 {
			continue
		}
		name := "?"
		if idx, ok := fnName[locFn[s.locs[0]]]; ok && idx >= 0 && int(idx) < len(strtab) {
			name = strtab[idx]
		}
		flat[name] += s.count
	}
	return flat, nil
}

// protoFields walks one protobuf message, calling fn with each field's
// number and either its varint value (wire type 0) or its bytes (wire
// type 2). Fixed-width fields are skipped.
func protoFields(b []byte, fn func(field int, v uint64, b []byte)) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			fn(field, v, nil)
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			fn(field, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, which arrive
// either one per field (b == nil) or packed into b.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
