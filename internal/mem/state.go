// Memory state export/import for deterministic machine snapshots.
//
// A page's complete observable state is its data, its protection and
// its write-version counter. The version matters as much as the data:
// the CPUs' instruction caches key coherence checks (ICacheStale) on
// it, so restoring data without versions would let a restored machine
// disagree with the original about which icache lines are stale.
//
// Export and import alias page data instead of copying it: both mark
// the page shared, and the memory copies a shared page before its
// next store (see writeBytes). The shared bit is host bookkeeping and
// is not part of the exported state.

package mem

import (
	"cmp"
	"fmt"
	"slices"
)

// PageState is one exported page.
type PageState struct {
	PN      uint64 // page number (addr >> PageShift)
	Prot    Prot
	Version uint64
	Data    []byte // PageSize long; read-only (see ExportPages)
}

// ExportPages returns every mapped page in page-number order. Data
// aliases the page contents copy-on-write: the page is marked shared,
// so the address space copies it before its next store and the export
// keeps the contents it was taken with. An export therefore costs one
// slice header per page, not a page copy. Data is read-only — writing
// through it would change every memory and export that shares it.
func (m *Memory) ExportPages() []PageState {
	out := make([]PageState, len(m.pages))
	for i, r := range m.pages {
		r.pg.shared = true
		out[i] = PageState{
			PN:      r.pn,
			Prot:    r.pg.prot,
			Version: r.pg.version,
			Data:    r.pg.data,
		}
	}
	return out
}

// ImportPages replaces the entire address space with the given pages —
// wholesale, so the restored mapping is exactly the exported one
// regardless of what the caller had mapped before (a freshly loaded
// image, extra CPU stacks, anything). Like ExportPages it aliases each
// page's Data copy-on-write instead of copying it, so the caller must
// treat pages as read-only from here on; the address space copies a
// page before its first store. Stats and policy flags are left
// untouched; the snapshot layer restores Stats separately.
func (m *Memory) ImportPages(pages []PageState) error {
	fresh := make([]pageRef, len(pages))
	for i := range pages {
		ps := &pages[i]
		if len(ps.Data) != PageSize {
			return fmt.Errorf("mem: page %#x holds %d bytes, want %d", ps.PN, len(ps.Data), PageSize)
		}
		if err := m.checkWX(ps.Prot); err != nil {
			return fmt.Errorf("mem: page %#x: %w", ps.PN, err)
		}
		fresh[i] = pageRef{pn: ps.PN, pg: &page{
			data:    ps.Data,
			prot:    ps.Prot,
			version: ps.Version,
			shared:  true,
		}}
	}
	// Pages from an export arrive in order; the sort only checks that
	// (in linear time) unless they were reordered.
	slices.SortFunc(fresh, func(a, b pageRef) int { return cmp.Compare(a.pn, b.pn) })
	for i := 1; i < len(fresh); i++ {
		if fresh[i].pn == fresh[i-1].pn {
			return fmt.Errorf("mem: duplicate page %#x in import", fresh[i].pn)
		}
	}
	m.pages = fresh
	m.lastPg = nil
	return nil
}

// SetStats overwrites the operation counters; the snapshot layer uses
// it so a restored run's counters continue from the exported values.
func (m *Memory) SetStats(s Stats) { m.Stats = s }
