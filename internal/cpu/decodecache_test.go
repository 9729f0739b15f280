package cpu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// hotLoop assembles the counter loop used by the decode-cache tests:
// r1 counts up to n with a backward conditional branch.
func hotLoop(n int32) []byte {
	var a isa.Asm
	a.Movi(1, 0)
	loop := a.Len()
	a.AluI(isa.ADDI, 1, 1)
	a.CmpI(1, n)
	jccAt := a.Len()
	a.Jcc(isa.LT, int32(loop-(jccAt+6)))
	a.Hlt()
	return a.Bytes()
}

// checkLineCaches is the reference for the decode cache: every entry
// derived on a resident icache line must be exactly what a fresh
// isa.Decode of the line's own byte snapshot yields. Decoded entries
// must lie at least maxInstLen bytes before the page end (their fetch
// window may not reach into the next line), and every instruction of a
// real superblock must equal the decode at its offset.
func checkLineCaches(t *testing.T, c *CPU) {
	t.Helper()
	decodeAt := func(line *icLine, off uint64) isa.Inst {
		w := line.bytes[off:]
		if len(w) >= 2 && isa.Op(w[0]) == isa.NOPN && int(w[1]) > len(w) {
			// NOPN padding may run past the page; only its length byte
			// is architectural.
			return isa.Inst{Op: isa.NOPN, Len: int(w[1])}
		}
		in, err := isa.Decode(w)
		if err != nil {
			t.Fatalf("cached offset %#x does not decode: %v", off, err)
		}
		return in
	}
	for pn, line := range c.icache {
		base := pn << mem.PageShift
		for off, i := range &line.idx {
			if i == 0 {
				continue
			}
			e := &line.ents[i-1]
			if e.in.Len != 0 {
				if uint64(off)+maxInstLen > mem.PageSize {
					t.Errorf("decoded entry at %#x lies within %d bytes of the page end", base+uint64(off), maxInstLen)
				}
				if want := decodeAt(line, uint64(off)); e.in != want {
					t.Errorf("decoded entry at %#x = %+v, fresh decode %+v", base+uint64(off), e.in, want)
				}
			}
			if e.sb == nil || e.sb == sbReject {
				continue
			}
			pc := base + uint64(off)
			for _, se := range e.sb.entries {
				if se.pc != pc || se.pc>>mem.PageShift != pn {
					t.Fatalf("superblock at %#x: entry pc %#x, want %#x on the same page", base+uint64(off), se.pc, pc)
				}
				if want := decodeAt(line, se.pc-base); se.in != want || se.next != pc+uint64(want.Len) {
					t.Errorf("superblock entry at %#x = %+v (next %#x), fresh decode %+v", pc, se.in, se.next, want)
				}
				pc = se.next
			}
		}
	}
}

func TestDecodeCacheHitsOnHotLoop(t *testing.T) {
	c := newVM(t, hotLoop(1000))
	run(t, c)
	checkLineCaches(t, c)
	st, ts := c.Stats(), c.TierStats()
	if ts.DecodeHits+ts.DecodeMisses != st.Instructions {
		t.Errorf("hits %d + misses %d != instructions %d",
			ts.DecodeHits, ts.DecodeMisses, st.Instructions)
	}
	// Four distinct loop instructions plus prologue/HLT decode once;
	// every further execution must be a hit.
	if ts.DecodeMisses > 6 {
		t.Errorf("misses = %d, want one per distinct pc (<= 6)", ts.DecodeMisses)
	}
	if ts.DecodeHits < st.Instructions*9/10 {
		t.Errorf("hits = %d of %d instructions; hot loop not served from cache",
			ts.DecodeHits, st.Instructions)
	}
}

// TestDecodeCacheCycleInvariance is the load-bearing invariant: the
// decode cache is a host-side accelerator only, so simulated cycles and
// every architectural statistic must be bit-identical to a run that
// decodes every instruction afresh. The reference run drops every
// line's derived entries before each instruction, leaving the byte
// snapshots (and so the icache statistics) untouched.
func TestDecodeCacheCycleInvariance(t *testing.T) {
	program := func() []byte {
		var a isa.Asm
		a.Movi(1, 0)
		a.Movi(4, int64(dataBase))
		loop := a.Len()
		a.AluI(isa.ADDI, 1, 1)
		a.St(4, 1, 8, 0)
		a.Ld(5, 4, 8, 0)
		a.Movi(6, 3)
		a.Xchg(4, 6)
		a.CmpI(1, 300)
		jccAt := a.Len()
		a.Jcc(isa.LT, int32(loop-(jccAt+6)))
		a.Hlt()
		return a.Bytes()
	}
	exec := func(fresh bool) (uint64, Stats) {
		c := newVM(t, program())
		for !c.Halted() {
			if fresh {
				for _, line := range c.icache {
					line.ents, line.idx, line.nsb = nil, [mem.PageSize]uint16{}, 0
				}
			}
			if err := c.Step(); err != nil {
				t.Fatal(err)
			}
		}
		checkLineCaches(t, c)
		if misses := c.TierStats().DecodeMisses; !fresh && misses > 12 {
			t.Errorf("cached run missed %d times, want one per distinct pc", misses)
		}
		return c.Cycles(), c.Stats()
	}
	cachedCycles, cachedStats := exec(false)
	freshCycles, freshStats := exec(true)
	if cachedCycles != freshCycles {
		t.Errorf("cycles differ: cached %d, fresh decodes %d", cachedCycles, freshCycles)
	}
	if cachedStats != freshStats {
		t.Errorf("stats differ:\ncached:        %+v\nfresh decodes: %+v", cachedStats, freshStats)
	}
}

// TestStaleDecodedInstructionUntilFlush mirrors TestStaleICacheUntilFlush
// one level up: after patching without a flush, the stale *decoded*
// instruction must keep executing from the cache, and the flush must
// drop the decode together with the icache line.
func TestStaleDecodedInstructionUntilFlush(t *testing.T) {
	var a isa.Asm
	a.Movi(0, 1)
	a.Hlt()
	c := newVM(t, a.Bytes())
	run(t, c)
	c.SetPC(textBase)
	run(t, c)
	if c.TierStats().DecodeHits == 0 {
		t.Fatal("second run not served from the decode cache")
	}

	var b isa.Asm
	b.Movi(0, 2)
	if err := c.Mem.WriteForce(textBase, b.Bytes()); err != nil {
		t.Fatal(err)
	}
	hits := c.TierStats().DecodeHits
	c.SetPC(textBase)
	run(t, c)
	if c.Reg(0) != 1 {
		t.Errorf("r0 = %d after unflushed patch, want stale 1", c.Reg(0))
	}
	if got := c.TierStats().DecodeHits - hits; got == 0 {
		t.Error("post-patch run bypassed the decode cache")
	}
	// The stale entries still match the line's (stale) byte snapshot.
	checkLineCaches(t, c)

	c.FlushICache(textBase, uint64(b.Len()))
	c.SetPC(textBase)
	run(t, c)
	if c.Reg(0) != 2 {
		t.Errorf("r0 = %d after flush, want 2", c.Reg(0))
	}
	checkLineCaches(t, c)
}

// TestStraddlingWindowNotCached provokes the case that forbids caching
// near page ends: an instruction whose fetch window straddles a page
// boundary takes bytes from two icache lines with independent
// lifetimes. Flushing only the second page must be visible on the next
// execution even though the first page stays cached.
func TestStraddlingWindowNotCached(t *testing.T) {
	m := mem.New()
	if err := m.Map(textBase, 2*mem.PageSize, mem.RWX); err != nil {
		t.Fatal(err)
	}
	start := textBase + mem.PageSize - 5 // MOVI: 5 bytes page 0, 5 bytes page 1
	var a isa.Asm
	a.Movi(3, 0x1111111111111111)
	a.Hlt()
	if err := m.Write(start, a.Bytes()); err != nil {
		t.Fatal(err)
	}
	c := New(m, DefaultConfig())
	c.SetPC(start)
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	if c.Reg(3) != 0x1111111111111111 {
		t.Fatalf("r3 = %#x", c.Reg(3))
	}
	checkLineCaches(t, c)
	// Patch the five immediate bytes that live in page 1 and flush
	// only page 1: the re-executed MOVI must mix the stale page-0
	// bytes with the fresh page-1 bytes.
	patch := []byte{0x22, 0x22, 0x22, 0x22, 0x22}
	if err := c.Mem.Write(textBase+mem.PageSize, patch); err != nil {
		t.Fatal(err)
	}
	c.FlushICache(textBase+mem.PageSize, uint64(len(patch)))
	c.SetPC(start)
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	const want = 0x2222222222111111 // low 3 bytes stale, high 5 fresh
	if c.Reg(3) != want {
		t.Errorf("r3 = %#x, want %#x (page-1 flush ignored)", c.Reg(3), want)
	}
	if c.TierStats().DecodeHits != 0 {
		t.Errorf("straddling instruction served from decode cache (%d hits)", c.TierStats().DecodeHits)
	}
	checkLineCaches(t, c)
}

// TestStraddleWithOnlyFirstPageCached executes a straddling instruction
// whose second page has never been fetched: the first page's line (and
// decode cache) exists from earlier execution, the second fills on
// demand.
func TestStraddleWithOnlyFirstPageCached(t *testing.T) {
	m := mem.New()
	if err := m.Map(textBase, 2*mem.PageSize, mem.RWX); err != nil {
		t.Fatal(err)
	}
	// Page 0: a warm-up HLT well inside the page, then a MOVI that
	// straddles into page 1.
	var warm isa.Asm
	warm.Movi(0, 7)
	warm.Hlt()
	if err := m.Write(textBase, warm.Bytes()); err != nil {
		t.Fatal(err)
	}
	start := textBase + mem.PageSize - 5
	var a isa.Asm
	a.Movi(3, 0x1122334455667788)
	a.Hlt()
	if err := m.Write(start, a.Bytes()); err != nil {
		t.Fatal(err)
	}
	c := New(m, DefaultConfig())
	c.SetPC(textBase)
	if _, err := c.Run(10); err != nil { // fills and decode-caches page 0 only
		t.Fatal(err)
	}
	if c.Stats().ICacheFills != 1 {
		t.Fatalf("fills = %d, want 1 (page 0 only)", c.Stats().ICacheFills)
	}
	c.SetPC(start)
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	if c.Reg(3) != 0x1122334455667788 {
		t.Errorf("r3 = %#x", c.Reg(3))
	}
	if c.Stats().ICacheFills != 2 {
		t.Errorf("fills = %d, want 2 (page 1 filled on demand)", c.Stats().ICacheFills)
	}
	checkLineCaches(t, c)
}
