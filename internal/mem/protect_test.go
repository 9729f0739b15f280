package mem

import (
	"errors"
	"testing"
)

// protTestMem maps pages 1..3 (0x1000-0x3fff) RW, leaving page 4
// unmapped, so ranges can straddle the mapping's edge.
func protTestMem(t *testing.T) *Memory {
	t.Helper()
	m := New()
	if err := m.Map(0x1000, 3*PageSize, RW); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestProtectZeroLength(t *testing.T) {
	m := protTestMem(t)
	if err := m.Protect(0x1000, 0, Read); err == nil {
		t.Fatal("zero-length Protect succeeded")
	}
	if got, _ := m.ProtOf(0x1000); got != RW {
		t.Fatalf("zero-length Protect changed protection to %v", got)
	}
}

func TestUnmapZeroLength(t *testing.T) {
	m := protTestMem(t)
	if err := m.Unmap(0x1000, 0); err == nil {
		t.Fatal("zero-length Unmap succeeded")
	}
	if _, ok := m.ProtOf(0x1000); !ok {
		t.Fatal("zero-length Unmap removed a page")
	}
}

// TestProtectPartiallyMappedIsAtomic runs Protect across the mapping's
// edge: the call must fail with a typed *Fault naming the first
// unmapped page, and no page in the valid prefix may have changed.
func TestProtectPartiallyMappedIsAtomic(t *testing.T) {
	m := protTestMem(t)
	err := m.Protect(0x2000, 3*PageSize, Read) // pages 2,3 mapped; 4 not
	if err == nil {
		t.Fatal("Protect across the mapping edge succeeded")
	}
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("error is %T (%v), want wrapped *Fault", err, err)
	}
	if f.Addr != 4*PageSize {
		t.Fatalf("fault addr = %#x, want %#x", f.Addr, 4*PageSize)
	}
	for _, addr := range []uint64{0x1000, 0x2000, 0x3000} {
		if got, _ := m.ProtOf(addr); got != RW {
			t.Fatalf("page %#x prot = %v after failed Protect, want RW (no partial mutation)", addr, got)
		}
	}
}

// TestUnmapPartiallyMappedIsAtomic mirrors the Protect case: a hole in
// the range must fail the whole call with a typed *Fault and remove
// nothing.
func TestUnmapPartiallyMappedIsAtomic(t *testing.T) {
	m := protTestMem(t)
	err := m.Unmap(0x2000, 3*PageSize)
	if err == nil {
		t.Fatal("Unmap across the mapping edge succeeded")
	}
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("error is %T (%v), want wrapped *Fault", err, err)
	}
	if f.Addr != 4*PageSize {
		t.Fatalf("fault addr = %#x, want %#x", f.Addr, 4*PageSize)
	}
	for _, addr := range []uint64{0x1000, 0x2000, 0x3000} {
		if _, ok := m.ProtOf(addr); !ok {
			t.Fatalf("page %#x unmapped by the failed Unmap", addr)
		}
	}
}

// TestProtectWXExclusiveMidRange asks for WX under the strict policy:
// the request must be rejected up front and the whole range left
// untouched, even though every page is mapped and the flip would
// otherwise be valid page by page.
func TestProtectWXExclusiveMidRange(t *testing.T) {
	m := New()
	m.WXExclusive = true
	if err := m.Map(0x1000, 3*PageSize, RW); err != nil {
		t.Fatal(err)
	}
	if err := m.Protect(0x1000, 3*PageSize, RW|Exec); err == nil {
		t.Fatal("W^X-violating Protect succeeded under WXExclusive")
	}
	for _, addr := range []uint64{0x1000, 0x2000, 0x3000} {
		if got, _ := m.ProtOf(addr); got != RW {
			t.Fatalf("page %#x prot = %v after rejected W^X flip, want RW", addr, got)
		}
	}
	// A compliant flip of the same range still works.
	if err := m.Protect(0x1000, 3*PageSize, RX); err != nil {
		t.Fatalf("compliant Protect failed: %v", err)
	}
	if got, _ := m.ProtOf(0x2000); got != RX {
		t.Fatalf("prot = %v, want RX", got)
	}
}

// TestProtectUnalignedPartialRangeIsAtomic starts mid-page and runs
// into unmapped space: widening must not leak a partial change either.
func TestProtectUnalignedPartialRangeIsAtomic(t *testing.T) {
	m := protTestMem(t)
	err := m.Protect(0x3800, PageSize, Read) // widens into unmapped page 4
	if err == nil {
		t.Fatal("Protect into unmapped space succeeded")
	}
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("error is %T (%v), want wrapped *Fault", err, err)
	}
	if got, _ := m.ProtOf(0x3000); got != RW {
		t.Fatalf("page 3 prot = %v after failed widened Protect, want RW", got)
	}
}

// TestRangesWrappingAddressSpaceRejected feeds Map, Unmap and Protect
// ranges that run past 2^64. Each must fail cleanly — no panic, no page
// created or dropped at a page number no address reaches — and leave
// memory exactly as it was.
func TestRangesWrappingAddressSpaceRejected(t *testing.T) {
	const top = 0xFFFF_FFFF_FFFF_F000 // last page of the address space
	for _, c := range []struct {
		name string
		op   func(m *Memory) error
	}{
		{"Map", func(m *Memory) error { return m.Map(top, 2*PageSize, RW) }},
		{"Unmap", func(m *Memory) error { return m.Unmap(top, 2*PageSize) }},
		{"Protect", func(m *Memory) error { return m.Protect(top, 2*PageSize, RW) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := New()
			if err := m.Map(0, PageSize, RX); err != nil {
				t.Fatal(err)
			}
			before, stats := m.Regions(), m.Stats
			if err := c.op(m); err == nil {
				t.Fatalf("%s of a range wrapping past 2^64 succeeded", c.name)
			}
			after := m.Regions()
			if len(after) != len(before) || after[0] != before[0] || m.Stats != stats {
				t.Fatalf("%s changed memory: regions %v -> %v, stats %+v -> %+v",
					c.name, before, after, stats, m.Stats)
			}
		})
	}
}
