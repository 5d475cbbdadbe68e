package mem

import (
	"errors"
	"fmt"
)

// AccessMode selects one of UVM's three page access behaviors
// (paper §III-A) for a range.
type AccessMode int

// The three UVM access behaviors.
const (
	// ModeMigrate is paged migration: far-faults move pages to the
	// accessing device (the paper's focus and the default).
	ModeMigrate AccessMode = iota
	// ModeRemoteMap maps host memory into the GPU's page tables without
	// migrating it; every access crosses the interconnect.
	ModeRemoteMap
	// ModeReadDup duplicates pages on both sides under the constraint
	// that the data is not mutated; eviction needs no write-back.
	ModeReadDup
)

// String names the mode.
func (m AccessMode) String() string {
	switch m {
	case ModeMigrate:
		return "migrate"
	case ModeRemoteMap:
		return "remote-map"
	case ModeReadDup:
		return "read-dup"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Range is one managed allocation (the analogue of a cudaMallocManaged
// call). Ranges are VABlock-aligned in the virtual space, mirroring the
// driver's layout, so a VABlock never spans two ranges.
type Range struct {
	ID        RangeID
	Label     string
	StartPage PageID // first page, VABlock aligned
	Pages     int    // allocation length in pages (requested size rounded up)
	Blocks    int    // VABlocks spanned
	Mode      AccessMode
}

// End returns one past the last page of the range.
func (r *Range) End() PageID { return r.StartPage + PageID(r.Pages) }

// Contains reports whether p falls inside the range.
func (r *Range) Contains(p PageID) bool {
	return p >= r.StartPage && p < r.End()
}

// VABlock is the driver-side state for one 2 MB block: residency and
// dirty bitmaps plus bookkeeping used by eviction.
type VABlock struct {
	ID    VABlockID
	Range RangeID

	// Resident marks pages currently backed by GPU memory.
	Resident *Bitmap
	// Dirty marks resident pages written on the GPU; eviction must copy
	// them back to the host.
	Dirty *Bitmap

	// Allocated reports whether the block has physical GPU backing
	// reserved (PMA chunk). Eviction releases it.
	Allocated bool
	// Remote marks the block as remote-mapped: pages are permanently
	// "resident" via the interconnect and never fault or occupy GPU
	// memory.
	Remote bool
	// ReadDup marks the block as read-duplicated: GPU copies are clean
	// duplicates of host pages, so eviction skips write-back.
	ReadDup bool

	// Touches counts fault-service events on this block (LRU updates).
	Touches uint64
	// Evictions counts how many times this block has been evicted.
	Evictions uint64
	// GPUAccesses is the Volta-style access counter (§VI-B extension):
	// counts GPU-side accesses, including non-faulting ones, when the
	// system enables access counters.
	GPUAccesses uint64
}

// MaxVABlocks bounds the VABlocks one address space may span (512 GiB at
// the default 2 MiB block). AllocMode builds the state of every block up
// front, so the bound keeps an allocation sized from untrusted input (a
// replayed trace) from exhausting host memory.
const MaxVABlocks = 1 << 18

// ErrSpaceTooLarge reports an allocation that would push an address
// space past MaxVABlocks.
var ErrSpaceTooLarge = errors.New("mem: address space exceeds the VABlock ceiling")

// AddressSpace is the per-application virtual space: an ordered set of
// ranges and the VABlock state of every block they span, indexed by ID.
type AddressSpace struct {
	geom   Geometry
	ranges []*Range
	blocks []*VABlock // blocks[id]; block IDs are dense from 0
	// nextPage is the next VABlock-aligned free virtual page.
	nextPage PageID
	// special is set once any non-migrate range exists; the GPU's hot
	// access path consults per-block mode flags only when it is set.
	special bool
}

// NewAddressSpace returns an empty address space with the given geometry.
func NewAddressSpace(g Geometry) *AddressSpace {
	return &AddressSpace{geom: g}
}

// Geometry returns the space's geometry.
func (s *AddressSpace) Geometry() Geometry { return s.geom }

// Alloc reserves a new paged-migration range of size bytes. Ranges are
// laid out contiguously, each starting on a VABlock boundary (like the
// gaps the paper's Fig. 7 removes).
func (s *AddressSpace) Alloc(size int64, label string) (*Range, error) {
	return s.AllocMode(size, label, ModeMigrate)
}

// AllocMode reserves a new range with the given access behavior and
// creates the state of every block it spans. Remote-mapped blocks start
// with every valid page "resident" through the interconnect.
func (s *AddressSpace) AllocMode(size int64, label string, mode AccessMode) (*Range, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mem: allocation size %d must be positive", size)
	}
	if mode < ModeMigrate || mode > ModeReadDup {
		return nil, fmt.Errorf("mem: invalid access mode %d", int(mode))
	}
	if blocks := (size-1)/s.geom.VABlockSize + 1; blocks > MaxVABlocks-int64(len(s.blocks)) {
		return nil, fmt.Errorf("%w: %q needs %d blocks, %d of %d in use", ErrSpaceTooLarge, label, blocks, len(s.blocks), MaxVABlocks)
	}
	pages := PagesFor(size)
	per := s.geom.PagesPerVABlock
	blocks := (pages + per - 1) / per
	r := &Range{
		ID:        RangeID(len(s.ranges)),
		Label:     label,
		StartPage: s.nextPage,
		Pages:     pages,
		Blocks:    blocks,
		Mode:      mode,
	}
	s.ranges = append(s.ranges, r)
	s.nextPage += PageID(blocks * per)
	if mode != ModeMigrate {
		s.special = true
	}
	for b := 0; b < blocks; b++ {
		blk := &VABlock{
			ID:       VABlockID(len(s.blocks)),
			Range:    r.ID,
			Resident: NewBitmap(per),
			Dirty:    NewBitmap(per),
			Remote:   mode == ModeRemoteMap,
			ReadDup:  mode == ModeReadDup,
		}
		s.blocks = append(s.blocks, blk)
		if blk.Remote {
			blk.Resident.SetRange(0, s.ValidPagesIn(blk.ID))
		}
	}
	return r, nil
}

// Special reports whether any remote-mapped or read-duplicated range
// exists (GPU fast-path gate).
func (s *AddressSpace) Special() bool { return s.special }

// MarkSpecial forces the special flag on. Multi-GPU systems set it up
// front: peer-owned blocks gain remote mappings dynamically (outside
// AllocMode), and the GPU's fast access path must not skip them.
func (s *AddressSpace) MarkSpecial() { s.special = true }

// Ranges returns the allocated ranges in allocation order.
func (s *AddressSpace) Ranges() []*Range { return s.ranges }

// RangeOf returns the range containing page p, or nil.
func (s *AddressSpace) RangeOf(p PageID) *Range {
	// Ranges are ordered and non-overlapping; binary search.
	lo, hi := 0, len(s.ranges)
	for lo < hi {
		mid := (lo + hi) / 2
		r := s.ranges[mid]
		switch {
		case p < r.StartPage:
			hi = mid
		case p >= r.StartPage+PageID(r.Blocks*s.geom.PagesPerVABlock):
			lo = mid + 1
		default:
			if r.Contains(p) {
				return r
			}
			return nil // in block padding past the range end
		}
	}
	return nil
}

// TotalPages returns the number of virtual pages across all ranges
// (excluding block-alignment padding).
func (s *AddressSpace) TotalPages() int {
	n := 0
	for _, r := range s.ranges {
		n += r.Pages
	}
	return n
}

// Block returns the VABlock state for id. It panics when the block lies
// outside every range: faults can only originate from allocated virtual
// addresses.
func (s *AddressSpace) Block(id VABlockID) *VABlock {
	if b := s.BlockIfExists(id); b != nil {
		return b
	}
	panic(fmt.Sprintf("mem: VABlock %d outside every range", id))
}

// BlockIfExists returns the block state for id, or nil outside every
// range.
func (s *AddressSpace) BlockIfExists(id VABlockID) *VABlock {
	if id < VABlockID(len(s.blocks)) {
		return s.blocks[id]
	}
	return nil
}

// IsResident reports whether page p is currently resident on the GPU.
func (s *AddressSpace) IsResident(p PageID) bool {
	b := s.BlockIfExists(s.geom.BlockOf(p))
	return b != nil && b.Resident.Get(s.geom.PageIndex(p))
}

// ForEachBlock visits every VABlock in ascending ID order (the invariant
// checker's residency sweep, so the lowest-ID violation reports first).
func (s *AddressSpace) ForEachBlock(fn func(*VABlock)) {
	for _, b := range s.blocks {
		fn(b)
	}
}

// ResidentPages returns the total number of GPU-resident pages.
func (s *AddressSpace) ResidentPages() int {
	n := 0
	for _, b := range s.blocks {
		n += b.Resident.Count()
	}
	return n
}

// ValidPagesIn returns how many pages of block id are inside its range
// (the final block of a range may be partially valid).
func (s *AddressSpace) ValidPagesIn(id VABlockID) int {
	b := s.Block(id)
	r := s.ranges[b.Range]
	first := s.geom.FirstPage(id)
	valid := int(r.End()) - int(first)
	if valid > s.geom.PagesPerVABlock {
		valid = s.geom.PagesPerVABlock
	}
	if valid < 0 {
		valid = 0
	}
	return valid
}
