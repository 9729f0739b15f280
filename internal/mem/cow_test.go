package mem

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// tearAll is a test Injector that tears every multi-byte write after
// its first byte.
type tearAll struct{}

var errTorn = errors.New("torn")

func (tearAll) ProtectFault(addr, length uint64, prot Prot) error { return nil }

func (tearAll) WriteTear(addr uint64, n int) (int, error) {
	if n < 2 {
		return 0, nil
	}
	return 1, errTorn
}

func clonePages(ps []PageState) []PageState {
	out := make([]PageState, len(ps))
	for i, p := range ps {
		out[i] = p
		out[i].Data = append([]byte(nil), p.Data...)
	}
	return out
}

func assertPagesEqual(t *testing.T, what string, got, want []PageState) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pages, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].PN != want[i].PN || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("%s: page %#x changed after the memory was written", what, want[i].PN)
		}
	}
}

// cowMem maps a writable page with content, a fresh (zero) page and a
// read-only page, the shapes every store path must copy before writing.
func cowMem(t *testing.T) *Memory {
	t.Helper()
	m := New()
	mustMap(t, m, 0x1000, 2*PageSize, RW)
	mustMap(t, m, 0x8000, PageSize, RX)
	if err := m.Write(0x1100, []byte("exported contents")); err != nil {
		t.Fatal(err)
	}
	return m
}

// writeEveryPath stores through Write, WriteForce (into the read-only
// page), WriteUint and a torn write.
func writeEveryPath(t *testing.T, m *Memory) {
	t.Helper()
	if err := m.Write(0x1100, []byte("overwritten!")); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteForce(0x8010, []byte{0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteUint(0x2008, 8, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	m.Inject = tearAll{}
	if err := m.Write(0x2100, []byte{1, 2, 3, 4}); !errors.Is(err, errTorn) {
		t.Fatalf("torn write: err = %v, want the injected tear", err)
	}
	m.Inject = nil
	got, err := m.ReadUint(0x2100, 1)
	if err != nil || got != 1 {
		t.Fatalf("torn prefix = %d, %v; want the first byte to land", got, err)
	}
}

func TestExportedPagesSurviveWrites(t *testing.T) {
	m := cowMem(t)
	exported := m.ExportPages()
	want := clonePages(exported)
	writeEveryPath(t, m)
	assertPagesEqual(t, "export", exported, want)
	// The memory itself sees its own writes.
	buf := make([]byte, 12)
	if err := m.Read(0x1100, buf); err != nil || string(buf) != "overwritten!" {
		t.Fatalf("memory reads %q, %v after write", buf, err)
	}
	// A second export after the writes aliases the new contents.
	if again := m.ExportPages(); bytes.Equal(again[0].Data, exported[0].Data) {
		t.Fatal("re-export after a write still shows the old contents")
	}
}

func TestImportedPagesSurviveWrites(t *testing.T) {
	src := cowMem(t).ExportPages()
	want := clonePages(src)
	m := New()
	if err := m.ImportPages(src); err != nil {
		t.Fatal(err)
	}
	writeEveryPath(t, m)
	assertPagesEqual(t, "import source", src, want)
}

func TestZeroPageStaysZero(t *testing.T) {
	a, b := New(), New()
	mustMap(t, a, 0x1000, 2*PageSize, RW)
	mustMap(t, b, 0x1000, PageSize, RW)
	if err := a.Write(0x1000, bytes.Repeat([]byte{0xFF}, PageSize+8)); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteUint(0x1ff8, 8, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(zeroPage[:], make([]byte, PageSize)) {
		t.Fatal("a write to a fresh page reached the shared zero page")
	}
	got := make([]byte, PageSize)
	if err := b.Read(0x1000, got[:16]); err != nil || !bytes.Equal(got[:16], make([]byte, 16)) {
		t.Fatalf("untouched bytes of a written fresh page = %x, %v; want zero", got[:16], err)
	}
}

// TestSharedImportsWrittenConcurrently runs under -race in CI: two
// memories imported from one export write the same pages from two
// goroutines, each into its own copy.
func TestSharedImportsWrittenConcurrently(t *testing.T) {
	src := cowMem(t).ExportPages()
	want := clonePages(src)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		m := New()
		if err := m.ImportPages(src); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := m.WriteUint(0x1100+uint64(i*8), 8, uint64(g)); err != nil {
					t.Error(err)
					return
				}
			}
			got, err := m.ReadUint(0x1100, 8)
			if err != nil || got != uint64(g) {
				t.Errorf("memory %d reads %d, %v; want its own write", g, got, err)
			}
		}(g)
	}
	wg.Wait()
	assertPagesEqual(t, "shared import source", src, want)
}
