package sweep

import (
	"encoding/json"
	"reflect"
	"testing"
)

// labelExcluded lists the Cell fields Label deliberately does not
// render. Every other field must change the label when perturbed.
var labelExcluded = map[string]string{
	// GPU memory is a sweep-wide setting the table title names; adding it
	// to the label would change every historical label and confighash.
	// The journal record carries it instead (journal.Scope).
	"GPUMemoryBytes": "sweep-wide, kept in journal.Scope",
	// Budgets never change a completed row's bytes, only whether a run
	// trips; like GPU memory they ride in journal.Scope so resume cannot
	// reuse a verdict reached under a different budget.
	"SimDeadlineNs":  "budget, kept in journal.Scope",
	"MaxEvents":      "budget, kept in journal.Scope",
	"LivelockWindow": "budget, kept in journal.Scope",
}

// k4Cell is a multi-GPU cell with every field set, so perturbing the
// device count or migration policy is visible in the label.
func k4Cell() Cell {
	return Cell{
		Workload: "hpgmg", GPUMemoryBytes: 96 << 20, Seed: 7, Footprint: 1.5,
		Prefetch: "density", Replay: "once", Evict: "lru+thrash", Batch: 128,
		VABlockBytes: 1 << 20, Gpus: 4, Migration: "access-counter",
		SimDeadlineNs: 5e9, MaxEvents: 1 << 30, LivelockWindow: 1 << 20,
	}
}

// Perturbing any field of Cell changes its label, except the fields on
// the commented exclusion list — which must leave it unchanged.
func TestCellLabelCoversEveryField(t *testing.T) {
	base := k4Cell()
	want := base.Label()
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		c := base
		f := reflect.ValueOf(&c).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1<<20) // whole KiB, so vablock=%dKiB moves too
		case reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() * 2)
		default:
			t.Fatalf("field %s: unhandled kind %s", typ.Field(i).Name, f.Kind())
		}
		name := typ.Field(i).Name
		_, excluded := labelExcluded[name]
		if changed := c.Label() != want; changed == excluded {
			t.Errorf("field %s: label changed=%t, excluded=%t", name, changed, excluded)
		}
	}
	for name := range labelExcluded {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("exclusion list names unknown field %s", name)
		}
	}
}

// The wire form is pinned: coordinators and workers of different builds
// must agree on it byte for byte. A K=1 cell elides the multi-GPU axes.
func TestCellWireFormPinned(t *testing.T) {
	k1 := Cell{
		Workload: "regular", GPUMemoryBytes: 16 << 20, Seed: 1, Footprint: 0.5,
		Prefetch: "none", Replay: "batchflush", Evict: "lru", Batch: 256,
		VABlockBytes: 2 << 20,
	}
	for _, tc := range []struct {
		cell Cell
		want string
	}{
		{k1, `{"workload":"regular","gpu_mem_bytes":16777216,"seed":1,"footprint":0.5,"prefetch":"none","replay":"batchflush","evict":"lru","batch":256,"vablock_bytes":2097152}`},
		{k4Cell(), `{"workload":"hpgmg","gpu_mem_bytes":100663296,"seed":7,"footprint":1.5,"prefetch":"density","replay":"once","evict":"lru+thrash","batch":128,"vablock_bytes":1048576,"gpus":4,"migration":"access-counter","sim_deadline_ns":5000000000,"max_events":1073741824,"livelock_window":1048576}`},
	} {
		got, err := json.Marshal(tc.cell)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("wire form drifted:\n got %s\nwant %s", got, tc.want)
		}
		var back Cell
		if err := json.Unmarshal(got, &back); err != nil || back != tc.cell {
			t.Errorf("round trip: got %+v (err %v), want %+v", back, err, tc.cell)
		}
	}
}

// Canonical elides the multi-GPU axes at K<=1 and resolves the empty
// replay spelling; Spec.Cell always yields the canonical form, and a
// cell's singleton spec expands back to the same cell.
func TestCellCanonicalAndSpecRoundTrip(t *testing.T) {
	c := Cell{Workload: "regular", GPUMemoryBytes: 16 << 20, Footprint: 0.5,
		Prefetch: "none", Evict: "lru", Batch: 256, VABlockBytes: 2 << 20,
		Gpus: 1, Migration: "access-counter"}
	canon := c.Canonical()
	if canon.Replay != "batchflush" || canon.Gpus != 0 || canon.Migration != "" {
		t.Fatalf("canonical = %+v", canon)
	}
	if c.Label() != canon.Label() {
		t.Errorf("label of a non-canonical cell differs from its canonical label")
	}
	bad := k4Cell()
	bad.Migration = "nearest"
	if bad.Validate() == nil {
		t.Error("unknown migration policy validated")
	}
	for _, cell := range []Cell{canon, k4Cell()} {
		if err := cell.Validate(); err != nil {
			t.Fatalf("%s: %v", cell.Label(), err)
		}
		s := cell.Spec()
		configs, err := s.Configs()
		if err != nil || len(configs) != 1 {
			t.Fatalf("singleton spec: %d configs, err %v", len(configs), err)
		}
		if got := s.Cell(configs[0]); got != cell {
			t.Errorf("round trip:\n got %+v\nwant %+v", got, cell)
		}
		if configs[0].Label(s) != cell.Label() {
			t.Errorf("Config.Label and Cell.Label disagree for %+v", cell)
		}
	}
}
