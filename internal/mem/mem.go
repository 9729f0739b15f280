// Package mem implements the paged physical memory of the simulated
// machine: 4 KiB pages with R/W/X permissions, an mprotect-style
// protection interface, and an optional strict W^X policy.
//
// The multiverse runtime library depends on this layer behaving like a
// real MMU: writing to a read-only text page faults, and under W^X a
// page can never be writable and executable at the same time — exactly
// the constraints §7.2 of the paper discusses.
//
// A Memory memoizes its most recent page lookup (lastPN/lastPg): the
// runtime's commit path touches the same few text pages about ten times
// per call site, and the memo turns those page-list searches into one
// comparison. The memo is host state only — never serialized, no
// simulated effect — and is cleared wherever a page leaves the address
// space (Unmap, ImportPages). Because even reads update it, a Memory is
// not safe for concurrent use, reads included.
package mem

import (
	"fmt"
	"slices"

	"repro/internal/trace"
)

// PageSize is the size of a page in bytes.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Prot is a page-protection bit set.
type Prot uint8

// Protection bits.
const (
	Read  Prot = 1 << iota // page may be read by data accesses
	Write                  // page may be written
	Exec                   // page may be fetched from
)

// Common protection combinations.
const (
	RW  = Read | Write
	RX  = Read | Exec
	RWX = Read | Write | Exec
)

// String renders the protection like "rwx" / "r-x".
func (p Prot) String() string {
	b := []byte("---")
	if p&Read != 0 {
		b[0] = 'r'
	}
	if p&Write != 0 {
		b[1] = 'w'
	}
	if p&Exec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// AccessKind classifies the access that caused a fault.
type AccessKind uint8

// Access kinds.
const (
	AccessRead AccessKind = iota
	AccessWrite
	AccessExec
)

func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	}
	return "unknown"
}

// Fault describes a memory access violation.
type Fault struct {
	Addr   uint64
	Kind   AccessKind
	Prot   Prot // protection of the faulting page; 0 if unmapped
	Mapped bool
}

// Error implements the error interface.
func (f *Fault) Error() string {
	if !f.Mapped {
		return fmt.Sprintf("mem: %s fault at %#x: page not mapped", f.Kind, f.Addr)
	}
	return fmt.Sprintf("mem: %s fault at %#x: page protection %s", f.Kind, f.Addr, f.Prot)
}

type page struct {
	data    []byte // always PageSize long; read-only while shared
	prot    Prot
	version uint64 // incremented on every write; the icache keys on it

	// shared marks data as aliased — the zero page, an exported
	// PageState or an imported one — so the first store copies it
	// (copy-on-write). Host bookkeeping only: no simulated effect.
	shared bool
}

// zeroPage backs every freshly mapped page until its first write. It
// is never written: writeBytes copies a shared page before storing.
var zeroPage [PageSize]byte

// unshare gives the page private data before its first store.
func (p *page) unshare() {
	p.data = append([]byte(nil), p.data...)
	p.shared = false
}

// Stats counts the memory-system operations the paper's evaluation
// cares about: protection flips (the mprotect cost of user-mode
// patching, §7.2) and icache flushes (counted here, incremented by
// the CPUs sharing this memory).
type Stats struct {
	ProtectCalls uint64 // successful Protect invocations
	Flushes      uint64 // icache flushes across all attached CPUs
}

// Sub returns the field-wise difference s − prev; the commit-latency
// accounting in core uses it to attribute the protection flips and
// flushes of one commit span.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		ProtectCalls: s.ProtectCalls - prev.ProtectCalls,
		Flushes:      s.Flushes - prev.Flushes,
	}
}

// Injector is the fault-injection hook of the memory system (see
// internal/faultinject, which implements it). A nil injector disables
// injection; the hooks below are single pointer-nil checks, so the
// uninjected paths stay unperturbed. Implementations must be
// deterministic: the same operation sequence sees the same faults.
type Injector interface {
	// ProtectFault is consulted after a Protect call has validated its
	// arguments and before it mutates any page. A non-nil error models
	// a transient or permanent mprotect failure (EPERM/EAGAIN); no
	// protection changes when it fires.
	ProtectFault(addr, length uint64, prot Prot) error
	// WriteTear is consulted before a multi-byte write. A non-nil
	// error models an interrupt or fault landing mid-write: the first
	// tear bytes still reach memory, the rest do not (a torn rel32).
	WriteTear(addr uint64, n int) (tear int, err error)
}

// Memory is a sparse paged address space.
type Memory struct {
	// pages holds the mapped pages in ascending page-number order
	// (addr >> PageShift), so the ordered walks (ExportPages, Regions)
	// need neither a map nor a sort; lookup binary-searches it.
	pages []pageRef

	// lastPN/lastPg memoize the most recent successful page lookup;
	// lastPg is nil when the memo is empty. See lookup.
	lastPN uint64
	lastPg *page

	// WXExclusive enforces strict W^X: Map and Protect reject any
	// protection with both Write and Exec set.
	WXExclusive bool

	// Stats accumulates operation counters; zero-cost to leave alone.
	Stats Stats

	// Tracer, when non-nil, observes protection transitions.
	Tracer trace.Tracer

	// Inject, when non-nil, may fail Protect calls and tear writes
	// (see Injector). Left nil, the write and protect paths cost one
	// pointer check.
	Inject Injector
}

// pageRef is one entry of Memory.pages.
type pageRef struct {
	pn uint64
	pg *page
}

// New returns an empty address space.
func New() *Memory {
	return &Memory{}
}

// find returns the index of page pn in m.pages and whether it is
// mapped; when it is not, the index is where it would be inserted.
func (m *Memory) find(pn uint64) (int, bool) {
	lo, hi := 0, len(m.pages)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.pages[mid].pn < pn {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(m.pages) && m.pages[lo].pn == pn
}

// lookup returns the page with number pn, or nil when pn is not
// mapped, through the one-entry memo. It stays small enough to inline,
// so a memo hit costs no call.
func (m *Memory) lookup(pn uint64) *page {
	if m.lastPg != nil && m.lastPN == pn {
		return m.lastPg
	}
	return m.search(pn)
}

// search is lookup's memo miss: it finds pn in the page list and
// memoizes it.
func (m *Memory) search(pn uint64) *page {
	i, ok := m.find(pn)
	if !ok {
		return nil
	}
	pg := m.pages[i].pg
	m.lastPN, m.lastPg = pn, pg
	return pg
}

// wraps reports whether the nonempty range [addr, addr+length) runs
// past the top of the address space.
func wraps(addr, length uint64) bool { return addr+length-1 < addr }

func (m *Memory) checkWX(prot Prot) error {
	if m.WXExclusive && prot&Write != 0 && prot&Exec != 0 {
		return fmt.Errorf("mem: W^X policy forbids %s mapping", prot)
	}
	return nil
}

// Map creates pages covering [addr, addr+length) with the given
// protection. addr and length must be page-aligned, and the range must
// not overlap an existing mapping.
func (m *Memory) Map(addr, length uint64, prot Prot) error {
	if addr%PageSize != 0 || length%PageSize != 0 {
		return fmt.Errorf("mem: Map(%#x, %#x) not page-aligned", addr, length)
	}
	if length == 0 {
		return fmt.Errorf("mem: Map with zero length")
	}
	if wraps(addr, length) {
		return fmt.Errorf("mem: Map(%#x, %#x) wraps past the top of the address space", addr, length)
	}
	if err := m.checkWX(prot); err != nil {
		return err
	}
	first := addr >> PageShift
	n := length >> PageShift
	// The first mapped page at or above first is the lowest one the
	// range would overlap; with none, the range fills one gap.
	at, _ := m.find(first)
	if at < len(m.pages) && m.pages[at].pn-first < n {
		return fmt.Errorf("mem: Map(%#x, %#x) overlaps existing mapping at %#x", addr, length, m.pages[at].pn<<PageShift)
	}
	m.pages = slices.Insert(m.pages, at, make([]pageRef, n)...)
	for i := uint64(0); i < n; i++ {
		m.pages[at+int(i)] = pageRef{pn: first + i, pg: &page{data: zeroPage[:], prot: prot, shared: true}}
	}
	return nil
}

// Unmap removes the pages covering [addr, addr+length). Like Map it
// rejects zero-length ranges, and an unmapped page anywhere in the
// range fails the whole call with a *Fault before anything is removed.
func (m *Memory) Unmap(addr, length uint64) error {
	if addr%PageSize != 0 || length%PageSize != 0 {
		return fmt.Errorf("mem: Unmap(%#x, %#x) not page-aligned", addr, length)
	}
	if length == 0 {
		return fmt.Errorf("mem: Unmap with zero length")
	}
	if wraps(addr, length) {
		return fmt.Errorf("mem: Unmap(%#x, %#x) wraps past the top of the address space", addr, length)
	}
	first := addr >> PageShift
	n := length >> PageShift
	// The range is fully mapped iff its pages are the n entries from
	// first's position on.
	at, _ := m.find(first)
	for i := uint64(0); i < n; i++ {
		if j := at + int(i); j >= len(m.pages) || m.pages[j].pn != first+i {
			return fmt.Errorf("mem: Unmap(%#x, %#x): %w", addr, length,
				&Fault{Addr: (first + i) << PageShift, Kind: AccessWrite})
		}
	}
	m.pages = slices.Delete(m.pages, at, at+int(n))
	m.lastPg = nil
	return nil
}

// Protect changes the protection of all pages overlapping
// [addr, addr+length), like mprotect(2). addr need not be aligned; the
// range is widened to page boundaries. The call is atomic: every page
// is validated (mapped, W^X) before any protection changes, so a
// failure anywhere in the range leaves every page untouched. An
// unmapped page reports a *Fault carrying its address.
func (m *Memory) Protect(addr, length uint64, prot Prot) error {
	if length == 0 {
		return fmt.Errorf("mem: Protect with zero length")
	}
	if wraps(addr, length) {
		return fmt.Errorf("mem: Protect(%#x, %#x) wraps past the top of the address space", addr, length)
	}
	if err := m.checkWX(prot); err != nil {
		return err
	}
	first := addr >> PageShift
	last := (addr + length - 1) >> PageShift
	for pn := first; pn <= last; pn++ {
		if m.lookup(pn) == nil {
			return fmt.Errorf("mem: Protect(%#x, %#x): %w", addr, length,
				&Fault{Addr: pn << PageShift, Kind: AccessWrite})
		}
	}
	if m.Inject != nil {
		if err := m.Inject.ProtectFault(addr, length, prot); err != nil {
			if m.Tracer != nil {
				m.Tracer.Emit(trace.KindFaultInjected, addr, length, 0)
			}
			return err
		}
	}
	old := m.lookup(first).prot
	for pn := first; pn <= last; pn++ {
		m.lookup(pn).prot = prot
	}
	m.Stats.ProtectCalls++
	if m.Tracer != nil {
		m.Tracer.Emit(trace.KindProtect, addr, length, uint64(prot)|uint64(old)<<8)
	}
	return nil
}

// ProtOf returns the protection of the page containing addr.
func (m *Memory) ProtOf(addr uint64) (Prot, bool) {
	p := m.lookup(addr >> PageShift)
	if p == nil {
		return 0, false
	}
	return p.prot, true
}

// PageVersion returns the write-version counter of the page containing
// addr. It is incremented on every store to the page; the CPU's
// instruction cache uses it to detect (un)flushed code modification.
func (m *Memory) PageVersion(addr uint64) (uint64, bool) {
	p := m.lookup(addr >> PageShift)
	if p == nil {
		return 0, false
	}
	return p.version, true
}

func (m *Memory) fault(addr uint64, kind AccessKind) error {
	p := m.lookup(addr >> PageShift)
	f := &Fault{Addr: addr, Kind: kind, Mapped: p != nil}
	if p != nil {
		f.Prot = p.prot
	}
	return f
}

// access walks the pages covering [addr, addr+len(buf)) and calls f
// once per page with the in-page slice.
func (m *Memory) access(addr uint64, n int, kind AccessKind, need Prot, f func(pg *page, off int, slice []byte)) error {
	if n == 0 {
		return nil
	}
	for n > 0 {
		pg := m.lookup(addr >> PageShift)
		if pg == nil || pg.prot&need != need {
			return m.fault(addr, kind)
		}
		off := int(addr & (PageSize - 1))
		chunk := PageSize - off
		if chunk > n {
			chunk = n
		}
		f(pg, off, pg.data[off:off+chunk])
		addr += uint64(chunk)
		n -= chunk
	}
	return nil
}

// Read copies len(buf) bytes starting at addr into buf, checking the
// Read permission.
func (m *Memory) Read(addr uint64, buf []byte) error {
	pos := 0
	return m.access(addr, len(buf), AccessRead, Read, func(pg *page, off int, slice []byte) {
		copy(buf[pos:], slice)
		pos += len(slice)
	})
}

// Write copies buf to addr, checking the Write permission and bumping
// the page version counters.
func (m *Memory) Write(addr uint64, buf []byte) error {
	if m.Inject != nil {
		if err := m.tornWrite(addr, buf, Write); err != nil {
			return err
		}
	}
	return m.writeBytes(addr, buf, Write)
}

// tornWrite consults the injector before a write; when a tear fires it
// lands the torn prefix (the bytes the interrupted store already
// retired) and returns the injected fault. A nil verdict reports nil
// and the caller proceeds with the full write.
func (m *Memory) tornWrite(addr uint64, buf []byte, need Prot) error {
	tear, err := m.Inject.WriteTear(addr, len(buf))
	if err == nil {
		return nil
	}
	if tear > len(buf) {
		tear = len(buf)
	}
	if tear > 0 {
		if werr := m.writeBytes(addr, buf[:tear], need); werr != nil {
			return werr
		}
	}
	if m.Tracer != nil {
		m.Tracer.Emit(trace.KindFaultInjected, addr, uint64(tear), 1)
	}
	return err
}

// writeBytes is the only store path (Write, WriteForce, torn
// prefixes), so it is where a shared page is copied before its first
// write.
func (m *Memory) writeBytes(addr uint64, buf []byte, need Prot) error {
	pos := 0
	return m.access(addr, len(buf), AccessWrite, need, func(pg *page, off int, slice []byte) {
		if pg.shared {
			pg.unshare()
			slice = pg.data[off : off+len(slice)]
		}
		copy(slice, buf[pos:])
		pos += len(slice)
		pg.version++
	})
}

// Fetch copies len(buf) instruction bytes starting at addr into buf,
// checking the Exec permission.
func (m *Memory) Fetch(addr uint64, buf []byte) error {
	pos := 0
	return m.access(addr, len(buf), AccessExec, Exec, func(pg *page, off int, slice []byte) {
		copy(buf[pos:], slice)
		pos += len(slice)
	})
}

// FetchPage returns the whole page holding addr for an instruction
// cache fill, checking the Exec permission as Fetch does: its bytes,
// without copying, and its write-version. The bytes alias the page, so
// they are read-only and valid only until the next write or mapping
// change; a caller that keeps them copies them.
func (m *Memory) FetchPage(addr uint64) ([]byte, uint64, error) {
	pg := m.lookup(addr >> PageShift)
	if pg == nil || pg.prot&Exec == 0 {
		return nil, 0, m.fault(addr, AccessExec)
	}
	return pg.data, pg.version, nil
}

// WriteForce copies buf to addr ignoring page protection (but still
// requiring the pages to be mapped). It models the kernel-mode port of
// the runtime library, which patches text through the direct mapping
// instead of calling mprotect. Page versions are bumped as usual.
func (m *Memory) WriteForce(addr uint64, buf []byte) error {
	if m.Inject != nil {
		if err := m.tornWrite(addr, buf, 0); err != nil {
			return err
		}
	}
	return m.writeBytes(addr, buf, 0)
}

func le(b []byte) uint64 {
	var v uint64
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// ReadUint reads a little-endian unsigned integer of the given size
// (1, 2, 4 or 8 bytes) at addr.
func (m *Memory) ReadUint(addr uint64, size int) (uint64, error) {
	var buf [8]byte
	if err := m.Read(addr, buf[:size]); err != nil {
		return 0, err
	}
	return le(buf[:size]), nil
}

// WriteUint writes a little-endian unsigned integer of the given size
// (1, 2, 4 or 8 bytes) at addr.
func (m *Memory) WriteUint(addr uint64, size int, v uint64) error {
	var buf [8]byte
	for i := 0; i < size; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	return m.Write(addr, buf[:size])
}

// Region describes one mapped protection-homogeneous address range.
type Region struct {
	Addr uint64
	Len  uint64
	Prot Prot
}

// Regions returns the mapped regions in address order, coalescing
// adjacent pages with equal protection.
func (m *Memory) Regions() []Region {
	var out []Region
	for _, r := range m.pages {
		if n := len(out); n > 0 {
			prev := &out[n-1]
			if prev.Addr+prev.Len == r.pn<<PageShift && prev.Prot == r.pg.prot {
				prev.Len += PageSize
				continue
			}
		}
		out = append(out, Region{Addr: r.pn << PageShift, Len: PageSize, Prot: r.pg.prot})
	}
	return out
}

// PageAlignDown rounds addr down to a page boundary.
func PageAlignDown(addr uint64) uint64 { return addr &^ (PageSize - 1) }

// PageAlignUp rounds n up to a multiple of the page size.
func PageAlignUp(n uint64) uint64 { return (n + PageSize - 1) &^ (PageSize - 1) }
