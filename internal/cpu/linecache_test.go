package cpu

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/mem"
)

// pagedLoops assembles pages hot loops, one at the start of each page,
// each jumping to the next page's loop when done; the last page halts.
// Running it fills exactly pages icache lines.
func pagedLoops(pages int) []byte {
	code := make([]byte, pages*mem.PageSize)
	for p := 0; p < pages; p++ {
		var a isa.Asm
		if p == pages-1 {
			a.Hlt()
		} else {
			a.Movi(1, 0)
			loop := a.Len()
			a.AluI(isa.ADDI, 1, 1)
			a.AluI(isa.XORI, 2, 5)
			a.CmpI(1, 50)
			jccAt := a.Len()
			a.Jcc(isa.LT, int32(loop-(jccAt+6)))
			jmpAt := a.Len()
			a.Jmp(int32(mem.PageSize - (jmpAt + 5)))
		}
		copy(code[p*mem.PageSize:], a.Bytes())
	}
	return code
}

// TestICacheLineAllocation: a line caches only the offsets it decodes,
// so filling a line and executing through it costs its byte snapshot
// (4 KiB), its offset index (8 KiB) and a few entries.
func TestICacheLineAllocation(t *testing.T) {
	const pages, perLine = 4, 16 << 10
	for _, sb := range []bool{false, true} {
		c := newVM(t, pagedLoops(pages))
		c.SetSuperblocks(sb)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := c.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if !c.Halted() || len(c.icache) != pages {
			t.Fatalf("superblocks=%v: halted=%v with %d lines, want %d", sb, c.Halted(), len(c.icache), pages)
		}
		if got := (after.TotalAlloc - before.TotalAlloc) / pages; got >= perLine {
			t.Errorf("superblocks=%v: %d bytes allocated per line, want < %d", sb, got, perLine)
		}
	}
}

// TestExportStateSharesLineBytes: line bytes are immutable snapshots,
// so ExportState hands them out and ImportState takes them in without
// copying.
func TestExportStateSharesLineBytes(t *testing.T) {
	c := stateVM(t)
	s := c.ExportState()
	fresh := New(c.Mem, c.Config())
	if err := fresh.ImportState(s); err != nil {
		t.Fatal(err)
	}
	for _, ls := range s.ICache {
		exported := unsafe.SliceData(ls.Bytes)
		if unsafe.SliceData(c.icache[ls.PN].code.bytes) != exported {
			t.Errorf("line %#x: ExportState copied the line bytes", ls.PN)
		}
		if unsafe.SliceData(fresh.icache[ls.PN].code.bytes) != exported {
			t.Errorf("line %#x: ImportState copied the line bytes", ls.PN)
		}
	}
}

// TestExportedStateSurvivesPatch: sharing is safe because nothing
// writes a line's bytes — a patch lands in memory, the flush drops the
// line and the refill takes a new snapshot. A State exported before
// the patch stays byte-identical.
func TestExportedStateSurvivesPatch(t *testing.T) {
	c := newVM(t, hotLoop(40))
	run(t, c)
	s := c.ExportState()
	want := cloneState(s)

	patched := hotLoop(90) // same layout, different trip count
	if err := c.Mem.WriteForce(textBase, patched); err != nil {
		t.Fatal(err)
	}
	c.FlushICache(textBase, uint64(len(patched)))
	c.SetPC(textBase)
	run(t, c)
	if got := c.Reg(1); got != 90 {
		t.Fatalf("patched loop ran to %d, want 90", got)
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatal("patch, flush and refill changed a previously exported State")
	}
}

// cloneState deep-copies every slice of s.
func cloneState(s State) State {
	out := s
	out.BTB = append([]BTBState(nil), s.BTB...)
	out.RAS = append([]uint64(nil), s.RAS...)
	out.ICache = make([]ICLineState, len(s.ICache))
	for i, ls := range s.ICache {
		ls.Bytes = append([]byte(nil), ls.Bytes...)
		out.ICache[i] = ls
	}
	return out
}
