package workloads

import (
	"bytes"
	"testing"

	"uvmsim/internal/core"
)

// FuzzParseTrace drives the trace trust boundary end to end: any input
// either fails to parse or replay with an error, or becomes a kernel
// that re-issues exactly the parsed accesses. Nothing may panic or
// allocate without bound (the seed corpus includes a sparse trace that
// would otherwise build millions of VABlocks).
// The seed corpus lives in testdata/fuzz/FuzzParseTrace.
func FuzzParseTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		accs, err := ParseTrace(bytes.NewReader(in))
		if err != nil {
			return
		}
		sys, err := core.NewSystem(core.DefaultConfig(16 << 20))
		if err != nil {
			t.Fatal(err)
		}
		k, err := Replay(sys, accs, DefaultParams())
		if err != nil {
			return
		}
		if got := k.TotalAccesses(); got != int64(len(accs)) {
			t.Fatalf("kernel issues %d accesses, trace parsed %d", got, len(accs))
		}
	})
}
