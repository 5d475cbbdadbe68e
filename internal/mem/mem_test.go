package mem

import (
	"testing"
	"testing/quick"
)

func TestDefaultGeometry(t *testing.T) {
	g := DefaultGeometry()
	if g.PagesPerVABlock != 512 {
		t.Errorf("PagesPerVABlock = %d, want 512", g.PagesPerVABlock)
	}
	// Paper: 9-level binary tree = log2(2MB/4KB); our TreeLevels counts
	// node levels including the leaf level, so 10 total = 9 above leaves.
	if g.TreeLevels != 10 {
		t.Errorf("TreeLevels = %d, want 10", g.TreeLevels)
	}
	if g.VABlockSize != 2<<20 {
		t.Errorf("VABlockSize = %d", g.VABlockSize)
	}
}

func TestNewGeometryValidation(t *testing.T) {
	if _, err := NewGeometry(3 << 20); err == nil {
		t.Error("non-power-of-two accepted")
	}
	if _, err := NewGeometry(4 << 10); err == nil {
		t.Error("block smaller than big page accepted")
	}
	g, err := NewGeometry(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.PagesPerVABlock != 16 || g.TreeLevels != 5 {
		t.Errorf("64KB geometry = %+v", g)
	}
}

func TestGeometryPageMath(t *testing.T) {
	g := DefaultGeometry()
	if g.BlockOf(0) != 0 || g.BlockOf(511) != 0 || g.BlockOf(512) != 1 {
		t.Error("BlockOf boundaries wrong")
	}
	if g.PageIndex(512) != 0 || g.PageIndex(1023) != 511 {
		t.Error("PageIndex wrong")
	}
	if g.FirstPage(3) != 1536 {
		t.Error("FirstPage wrong")
	}
}

func TestGeometryRoundTripProperty(t *testing.T) {
	g := DefaultGeometry()
	f := func(raw uint32) bool {
		p := PageID(raw)
		b := g.BlockOf(p)
		idx := g.PageIndex(p)
		return g.FirstPage(b)+PageID(idx) == p && idx < g.PagesPerVABlock
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBigPageBase(t *testing.T) {
	if BigPageBase(0) != 0 || BigPageBase(15) != 0 || BigPageBase(16) != 16 || BigPageBase(511) != 496 {
		t.Error("BigPageBase wrong")
	}
}

func TestPagesFor(t *testing.T) {
	cases := []struct {
		size int64
		want int
	}{{0, 0}, {-5, 0}, {1, 1}, {4096, 1}, {4097, 2}, {2 << 20, 512}}
	for _, c := range cases {
		if got := PagesFor(c.size); got != c.want {
			t.Errorf("PagesFor(%d) = %d, want %d", c.size, got, c.want)
		}
	}
	if Bytes(3) != 3*4096 {
		t.Error("Bytes wrong")
	}
}

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(512)
	if b.Count() != 0 || b.Len() != 512 {
		t.Fatal("fresh bitmap not empty")
	}
	if !b.Set(5) || b.Set(5) {
		t.Error("Set return values wrong")
	}
	if !b.Get(5) || b.Get(6) {
		t.Error("Get wrong")
	}
	if b.Count() != 1 {
		t.Error("Count wrong after set")
	}
	if !b.Clear(5) || b.Clear(5) {
		t.Error("Clear return values wrong")
	}
	if b.Count() != 0 {
		t.Error("Count wrong after clear")
	}
}

func TestBitmapCountRange(t *testing.T) {
	b := NewBitmap(512)
	for _, i := range []int{0, 63, 64, 65, 127, 200, 511} {
		b.Set(i)
	}
	cases := []struct{ lo, hi, want int }{
		{0, 512, 7}, {0, 64, 2}, {64, 128, 3}, {65, 66, 1},
		{128, 200, 0}, {200, 201, 1}, {511, 512, 1}, {100, 100, 0},
	}
	for _, c := range cases {
		if got := b.CountRange(c.lo, c.hi); got != c.want {
			t.Errorf("CountRange(%d,%d) = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
}

func TestBitmapCountRangeProperty(t *testing.T) {
	f := func(setBits []uint16, loRaw, hiRaw uint16) bool {
		b := NewBitmap(512)
		ref := make(map[int]bool)
		for _, s := range setBits {
			i := int(s) % 512
			b.Set(i)
			ref[i] = true
		}
		lo, hi := int(loRaw)%513, int(hiRaw)%513
		if lo > hi {
			lo, hi = hi, lo
		}
		want := 0
		for i := lo; i < hi; i++ {
			if ref[i] {
				want++
			}
		}
		return b.CountRange(lo, hi) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitmapForEachSetAndRuns(t *testing.T) {
	b := NewBitmap(128)
	for _, i := range []int{3, 4, 5, 10, 64, 65} {
		b.Set(i)
	}
	var seen []int
	b.ForEachSet(func(i int) { seen = append(seen, i) })
	want := []int{3, 4, 5, 10, 64, 65}
	if len(seen) != len(want) {
		t.Fatalf("ForEachSet = %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("ForEachSet = %v, want %v", seen, want)
		}
	}
	var runs [][2]int
	b.Runs(func(lo, hi int) { runs = append(runs, [2]int{lo, hi}) })
	wantRuns := [][2]int{{3, 6}, {10, 11}, {64, 66}}
	if len(runs) != len(wantRuns) {
		t.Fatalf("Runs = %v", runs)
	}
	for i := range wantRuns {
		if runs[i] != wantRuns[i] {
			t.Fatalf("Runs = %v, want %v", runs, wantRuns)
		}
	}
}

func TestBitmapOrAndClone(t *testing.T) {
	a, b := NewBitmap(128), NewBitmap(128)
	a.Set(1)
	a.Set(2)
	b.Set(2)
	b.Set(3)
	c := a.Clone()
	a.Or(b)
	if a.Count() != 3 || !a.Get(1) || !a.Get(2) || !a.Get(3) {
		t.Error("Or wrong")
	}
	if c.Count() != 2 || c.Get(3) {
		t.Error("Clone not independent")
	}
}

func TestBitmapNextClearAndReset(t *testing.T) {
	b := NewBitmap(8)
	for i := 0; i < 8; i++ {
		b.Set(i)
	}
	if b.NextClear(0) != -1 {
		t.Error("NextClear on full bitmap")
	}
	b.Clear(5)
	if b.NextClear(0) != 5 || b.NextClear(6) != -1 {
		t.Error("NextClear wrong")
	}
	b.Reset()
	if b.Count() != 0 || b.Get(3) {
		t.Error("Reset wrong")
	}
}

func TestAddressSpaceAlloc(t *testing.T) {
	s := NewAddressSpace(DefaultGeometry())
	a, err := s.Alloc(3<<20, "A") // 1.5 VABlocks -> 2 blocks, 768 pages
	if err != nil {
		t.Fatal(err)
	}
	if a.Pages != 768 || a.Blocks != 2 || a.StartPage != 0 {
		t.Errorf("range A = %+v", a)
	}
	b, err := s.Alloc(4096, "B")
	if err != nil {
		t.Fatal(err)
	}
	// B must start on the next VABlock boundary (page 1024).
	if b.StartPage != 1024 || b.Pages != 1 || b.Blocks != 1 {
		t.Errorf("range B = %+v", b)
	}
	if s.TotalPages() != 769 {
		t.Errorf("TotalPages = %d", s.TotalPages())
	}
	if _, err := s.Alloc(0, "zero"); err == nil {
		t.Error("zero-size allocation accepted")
	}
}

func TestRangeOf(t *testing.T) {
	s := NewAddressSpace(DefaultGeometry())
	a, _ := s.Alloc(3<<20, "A") // pages 0..767, blocks 0-1
	b, _ := s.Alloc(1<<20, "B") // pages 1024..1279, block 2
	if s.RangeOf(0) != a || s.RangeOf(767) != a {
		t.Error("RangeOf A wrong")
	}
	if s.RangeOf(768) != nil { // padding inside A's last block
		t.Error("padding page attributed to a range")
	}
	if s.RangeOf(1024) != b || s.RangeOf(1279) != b {
		t.Error("RangeOf B wrong")
	}
	if s.RangeOf(1280) != nil || s.RangeOf(99999) != nil {
		t.Error("out-of-space page attributed to a range")
	}
}

func TestBlockMaterialization(t *testing.T) {
	s := NewAddressSpace(DefaultGeometry())
	s.Alloc(3<<20, "A")
	b0 := s.Block(0)
	if b0 == nil || b0.Range != 0 || b0.Resident.Len() != 512 {
		t.Fatalf("block 0 = %+v", b0)
	}
	if s.Block(0) != b0 {
		t.Error("Block not memoized")
	}
	// Block 1 is the partially-valid tail block of A.
	if got := s.ValidPagesIn(1); got != 256 {
		t.Errorf("ValidPagesIn(1) = %d, want 256", got)
	}
	if got := s.ValidPagesIn(0); got != 512 {
		t.Errorf("ValidPagesIn(0) = %d, want 512", got)
	}
	if s.BlockIfExists(7) != nil {
		t.Error("BlockIfExists materialized a block")
	}
}

func TestForEachBlockAscending(t *testing.T) {
	s := NewAddressSpace(DefaultGeometry())
	modes := []AccessMode{ModeMigrate, ModeRemoteMap, ModeReadDup, ModeMigrate}
	for i, m := range modes {
		if _, err := s.AllocMode(int64(i+1)<<20+12<<10, "r", m); err != nil {
			t.Fatal(err)
		}
	}
	// Touch blocks out of order: visit order must not depend on it.
	for _, id := range []VABlockID{5, 0, 3} {
		s.Block(id).Resident.Set(1)
	}
	var got []VABlockID
	s.ForEachBlock(func(b *VABlock) {
		got = append(got, b.ID)
		r := s.Ranges()[b.Range]
		if b.Remote != (r.Mode == ModeRemoteMap) || b.ReadDup != (r.Mode == ModeReadDup) {
			t.Errorf("block %d mode flags remote=%v readdup=%v in %v range", b.ID, b.Remote, b.ReadDup, r.Mode)
		}
		if b != s.Block(b.ID) {
			t.Errorf("block %d visited a different state than Block returns", b.ID)
		}
	})
	// Ranges of 1, 2, 3 and 4 MB plus 12 KB span 1, 2, 2 and 3 blocks.
	if len(got) != 8 {
		t.Fatalf("visited %d blocks, want 8: %v", len(got), got)
	}
	for i, id := range got {
		if id != VABlockID(i) {
			t.Fatalf("visit order %v, want ascending 0..7", got)
		}
	}
}

func TestBlockOutsideRangePanics(t *testing.T) {
	s := NewAddressSpace(DefaultGeometry())
	s.Alloc(1<<20, "A")
	defer func() {
		if recover() == nil {
			t.Error("Block outside ranges did not panic")
		}
	}()
	s.Block(99)
}

func TestResidency(t *testing.T) {
	s := NewAddressSpace(DefaultGeometry())
	s.Alloc(4<<20, "A")
	if s.IsResident(10) {
		t.Error("fresh page resident")
	}
	b := s.Block(0)
	b.Resident.Set(10)
	if !s.IsResident(10) || s.IsResident(11) {
		t.Error("IsResident wrong")
	}
	if s.ResidentPages() != 1 {
		t.Errorf("ResidentPages = %d", s.ResidentPages())
	}
}

func TestRangeContains(t *testing.T) {
	r := &Range{StartPage: 100, Pages: 50}
	if !r.Contains(100) || !r.Contains(149) || r.Contains(150) || r.Contains(99) {
		t.Error("Contains wrong")
	}
	if r.End() != 150 {
		t.Error("End wrong")
	}
}

func TestAllocModeRemote(t *testing.T) {
	s := NewAddressSpace(DefaultGeometry())
	if s.Special() {
		t.Error("fresh space marked special")
	}
	r, err := s.AllocMode(3<<20, "remote", ModeRemoteMap)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Special() {
		t.Error("remote range did not mark space special")
	}
	if r.Mode != ModeRemoteMap {
		t.Errorf("mode = %v", r.Mode)
	}
	// Every valid page is pre-resident through the interconnect; the
	// partial tail block must not mark padding resident.
	if got := s.ResidentPages(); got != r.Pages {
		t.Errorf("resident = %d, want %d", got, r.Pages)
	}
	b := s.Block(0)
	if !b.Remote || b.ReadDup {
		t.Errorf("block flags = %+v", b)
	}
	if s.Block(1).Resident.Get(300) { // page beyond the 768-page range
		t.Error("padding page resident")
	}
}

func TestAllocModeReadDupAndValidation(t *testing.T) {
	s := NewAddressSpace(DefaultGeometry())
	r, err := s.AllocMode(1<<20, "dup", ModeReadDup)
	if err != nil {
		t.Fatal(err)
	}
	b := s.Block(s.Geometry().BlockOf(r.StartPage))
	if !b.ReadDup || b.Remote {
		t.Errorf("block flags = %+v", b)
	}
	if s.ResidentPages() != 0 {
		t.Error("read-dup pages should not be pre-resident")
	}
	if _, err := s.AllocMode(1<<20, "bad", AccessMode(42)); err == nil {
		t.Error("invalid mode accepted")
	}
	if len(s.Ranges()) != 1 {
		t.Errorf("ranges = %d", len(s.Ranges()))
	}
}

func TestAccessModeString(t *testing.T) {
	cases := map[AccessMode]string{
		ModeMigrate:   "migrate",
		ModeRemoteMap: "remote-map",
		ModeReadDup:   "read-dup",
		AccessMode(9): "mode(9)",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestGeometryAccessor(t *testing.T) {
	s := NewAddressSpace(DefaultGeometry())
	if s.Geometry().PagesPerVABlock != 512 {
		t.Error("Geometry accessor wrong")
	}
}
