package mem

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// checkSorted asserts that the page list is in ascending page-number
// order with no repeats, that lookup finds every page in it, and that
// ExportPages lists them in the same order.
func checkSorted(t *testing.T, m *Memory, step string) {
	t.Helper()
	for i, r := range m.pages {
		if i > 0 && m.pages[i-1].pn >= r.pn {
			t.Fatalf("%s: page list out of order at %d: %#x then %#x", step, i, m.pages[i-1].pn, r.pn)
		}
		m.lastPg = nil
		if m.lookup(r.pn) != r.pg {
			t.Fatalf("%s: lookup(%#x) does not find the listed page", step, r.pn)
		}
	}
	exp := m.ExportPages()
	if len(exp) != len(m.pages) ||
		!slices.IsSortedFunc(exp, func(a, b PageState) int { return cmp.Compare(a.PN, b.PN) }) {
		t.Fatalf("%s: ExportPages lists %d pages out of order, %d mapped", step, len(exp), len(m.pages))
	}
}

// TestSortedPagesFollowMapUnmap drives a seeded mix of Map and Unmap
// over a small page-number space against a set model of the mapped
// pages: every call succeeds exactly when the model says it should,
// and the page list stays ordered and equal to the model.
func TestSortedPagesFollowMapUnmap(t *testing.T) {
	m := New()
	model := map[uint64]bool{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		pn := uint64(rng.Intn(64))
		n := uint64(1 + rng.Intn(4))
		anyMapped, allMapped := false, true
		for k := pn; k < pn+n; k++ {
			anyMapped = anyMapped || model[k]
			allMapped = allMapped && model[k]
		}
		if rng.Intn(2) == 0 {
			err := m.Map(pn<<PageShift, n*PageSize, RW)
			if (err == nil) == anyMapped {
				t.Fatalf("Map(page %#x, %d pages) = %v with overlap %v", pn, n, err, anyMapped)
			}
			for k := pn; err == nil && k < pn+n; k++ {
				model[k] = true
			}
		} else {
			err := m.Unmap(pn<<PageShift, n*PageSize)
			if (err == nil) != allMapped {
				t.Fatalf("Unmap(page %#x, %d pages) = %v with all mapped %v", pn, n, err, allMapped)
			}
			for k := pn; err == nil && k < pn+n; k++ {
				delete(model, k)
			}
		}
		checkSorted(t, m, "Map/Unmap")
		if len(m.pages) != len(model) {
			t.Fatalf("%d pages listed, model holds %d", len(m.pages), len(model))
		}
	}
	if len(m.pages) == 0 {
		t.Fatal("sequence left nothing mapped; the check exercised nothing")
	}
}

// TestImportPagesOrdersAndRejects: an import in export order, or in
// any other order, yields the ordered page list; duplicates and short
// pages are still refused and leave the address space unchanged.
func TestImportPagesOrdersAndRejects(t *testing.T) {
	src := New()
	mustMap(t, src, 0x1000, 3*PageSize, RW)
	mustMap(t, src, 0x9000, PageSize, RX)
	pages := src.ExportPages()

	m := New()
	if err := m.ImportPages(pages); err != nil {
		t.Fatal(err)
	}
	checkSorted(t, m, "ordered import")

	shuffled := slices.Clone(pages)
	slices.Reverse(shuffled)
	if err := m.ImportPages(shuffled); err != nil {
		t.Fatal(err)
	}
	checkSorted(t, m, "reversed import")
	if got := m.Regions(); len(got) != 2 || got[0] != (Region{Addr: 0x1000, Len: 3 * PageSize, Prot: RW}) {
		t.Fatalf("regions after reversed import = %+v", got)
	}

	dup := append(slices.Clone(pages), pages[0])
	if err := m.ImportPages(dup); err == nil {
		t.Fatal("import with a duplicate page succeeded")
	}
	short := slices.Clone(pages)
	short[1].Data = short[1].Data[:10]
	if err := m.ImportPages(short); err == nil {
		t.Fatal("import with a short page succeeded")
	}
	checkSorted(t, m, "refused imports")
	if len(m.pages) != len(pages) {
		t.Fatalf("refused imports changed the address space: %d pages, want %d", len(m.pages), len(pages))
	}
}
