package mem

import (
	"bytes"
	"testing"
)

// The page-lookup memo must never serve a page that left the address
// space, and must not stand in for any page but the one it names.

func TestMemoDroppedByUnmap(t *testing.T) {
	m := New()
	if err := m.Map(0x1000, PageSize, RW); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0x1000, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := m.Unmap(0x1000, PageSize); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.ProtOf(0x1000); ok {
		t.Fatal("unmapped page still reported mapped")
	}
	if err := m.Map(0x1000, PageSize, Read); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if err := m.Read(0x1000, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{0, 0, 0}) {
		t.Fatalf("remapped page reads %x, want zeros", buf)
	}
	if p, _ := m.ProtOf(0x1000); p != Read {
		t.Fatalf("remapped page prot = %v, want %v", p, Read)
	}
	if err := m.Write(0x1000, []byte{9}); err == nil {
		t.Fatal("write to the read-only remapped page succeeded")
	}
}

func TestMemoDroppedByImportPages(t *testing.T) {
	src := New()
	if err := src.Map(0x1000, PageSize, RW); err != nil {
		t.Fatal(err)
	}
	if err := src.Write(0x1000, []byte("imported")); err != nil {
		t.Fatal(err)
	}
	pages := src.ExportPages()

	m := New()
	if err := m.Map(0x1000, PageSize, RW); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0x1000, []byte("original")); err != nil {
		t.Fatal(err)
	}
	if err := m.ImportPages(pages); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if err := m.Read(0x1000, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "imported" {
		t.Fatalf("read after ImportPages = %q, want %q", buf, "imported")
	}
	if v, _ := m.PageVersion(0x1000); v != pages[0].Version {
		t.Fatalf("page version = %d, want the imported %d", v, pages[0].Version)
	}
}

func TestMemoProtectSpansPages(t *testing.T) {
	m := New()
	if err := m.Map(0x1000, 2*PageSize, RW); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.ProtOf(0x2000); !ok { // memoize the second page
		t.Fatal("second page not mapped")
	}
	if err := m.Protect(0x1000, 2*PageSize, Read); err != nil {
		t.Fatal(err)
	}
	for _, addr := range []uint64{0x1000, 0x2000} {
		if p, _ := m.ProtOf(addr); p != Read {
			t.Fatalf("page %#x prot = %v after a two-page Protect, want %v", addr, p, Read)
		}
	}
}
