package cpu

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/mem"
)

// TestCodeKeysPageNumber: pagedLoops puts byte-identical loops on
// pages 0-2, each jumping forward by a page-relative offset. Block
// entries hold absolute pcs, so a store keyed on bytes alone would
// hand page 1 the blocks of page 0 and loop forever; keyed on page and
// bytes, the program halts with one line per page.
func TestCodeKeysPageNumber(t *testing.T) {
	const pages = 4
	for _, sb := range []bool{false, true} {
		c := newVM(t, pagedLoops(pages))
		c.SetSuperblocks(sb)
		if _, err := c.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		if !c.Halted() || len(c.icache) != pages || len(c.Code().lines) != pages {
			t.Fatalf("superblocks=%v: halted=%v with %d lines, store %d, want %d",
				sb, c.Halted(), len(c.icache), len(c.Code().lines), pages)
		}
		checkLineCaches(t, c)
	}
}

// TestCodeSharedAcrossCPUs: two CPUs on separate memories holding the
// same program share one store. The second retires exactly what the
// first did, from the blocks and decodes the first built.
func TestCodeSharedAcrossCPUs(t *testing.T) {
	code := NewCode()
	var cpus [2]*CPU
	for i := range cpus {
		c := newVM(t, pagedLoops(3))
		c.SetSuperblocks(true)
		c.SetCode(code)
		if _, err := c.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		if !c.Halted() {
			t.Fatalf("cpu %d did not halt", i)
		}
		cpus[i] = c
	}
	a, b := cpus[0], cpus[1]
	if a.regs != b.regs || a.pc != b.pc || a.Cycles() != b.Cycles() || a.Stats() != b.Stats() {
		t.Fatalf("sharing a store changed execution:\nfirst:  regs %v pc %#x cycles %d %+v\nsecond: regs %v pc %#x cycles %d %+v",
			a.regs, a.pc, a.Cycles(), a.Stats(), b.regs, b.pc, b.Cycles(), b.Stats())
	}
	if a.TierStats().BlockBuilds == 0 {
		t.Fatal("the first CPU built no blocks")
	}
	// The first instruction after a fill takes the fetch-and-decode
	// path; nothing else is decoded again.
	got, fills := b.TierStats(), b.Stats().ICacheFills
	if got.BlockBuilds != 0 || got.DecodeMisses > fills || got.BlockHits == 0 {
		t.Errorf("second CPU: %d builds, %d decode misses over %d fills, %d block hits; want 0, <= fills, > 0",
			got.BlockBuilds, got.DecodeMisses, fills, got.BlockHits)
	}
	checkLineCaches(t, b)
}

// TestCodeRefillRebuildsNothing: a flush drops the CPU's line, not the
// store's, so refilling unchanged bytes builds nothing; patched bytes
// are a new line and build their blocks afresh.
func TestCodeRefillRebuildsNothing(t *testing.T) {
	c := newVM(t, hotLoopProgram(50))
	c.SetSuperblocks(true)
	rerun := func() TierStats {
		t.Helper()
		c.FlushICache(textBase, mem.PageSize)
		c.SetPC(textBase)
		run(t, c)
		return c.TierStats()
	}
	warm := rerun()
	if warm.BlockBuilds == 0 {
		t.Fatal("no blocks built")
	}
	// Only the refill's first instruction is fetched and decoded.
	if got := rerun(); got.BlockBuilds != warm.BlockBuilds || got.DecodeMisses > warm.DecodeMisses+1 {
		t.Errorf("refill of unchanged bytes: builds %d -> %d, decode misses %d -> %d; want unchanged builds, at most one miss",
			warm.BlockBuilds, got.BlockBuilds, warm.DecodeMisses, got.DecodeMisses)
	}

	if err := c.Mem.WriteForce(textBase, hotLoopProgram(70)); err != nil {
		t.Fatal(err)
	}
	if got := rerun(); got.BlockBuilds <= warm.BlockBuilds {
		t.Errorf("patched page built no blocks (%d -> %d)", warm.BlockBuilds, got.BlockBuilds)
	}
	if c.Reg(1) != 70 {
		t.Errorf("patched loop ran to %d, want 70", c.Reg(1))
	}
	checkLineCaches(t, c)
}

// TestCodeBound: patching one page through more distinct contents
// than the store holds clears it, and execution stays exact — also on
// the other page, whose line the CPU keeps across the clear.
func TestCodeBound(t *testing.T) {
	// Page 0 sets r2 and jumps to page 1, which sets r1 and halts.
	var a isa.Asm
	a.Movi(2, 7)
	jmpAt := a.Len()
	a.Jmp(int32(mem.PageSize - (jmpAt + 5)))
	prog := make([]byte, mem.PageSize+16)
	copy(prog, a.Bytes())
	c := newVM(t, prog)
	c.SetSuperblocks(true)
	page1 := textBase + mem.PageSize
	for i := 0; i < maxCodeLines+100; i++ {
		var b isa.Asm
		b.Movi(1, int64(i))
		b.Hlt()
		if err := c.Mem.WriteForce(page1, b.Bytes()); err != nil {
			t.Fatal(err)
		}
		c.FlushICache(page1, 1)
		for rep := 0; rep < 2; rep++ {
			c.SetPC(textBase)
			run(t, c)
			if c.Reg(1) != uint64(i) || c.Reg(2) != 7 {
				t.Fatalf("variant %d: r1=%d r2=%d, want %d and 7", i, c.Reg(1), c.Reg(2), i)
			}
		}
		if n := len(c.Code().lines); n > maxCodeLines {
			t.Fatalf("variant %d: store holds %d lines, bound %d", i, n, maxCodeLines)
		}
	}
	checkLineCaches(t, c)
}

// TestCodeRefillAllocation: a refill that finds its line in the store
// allocates no more than the CPU's own record.
func TestCodeRefillAllocation(t *testing.T) {
	const refills = 200
	c := newVM(t, hotLoopProgram(20))
	c.SetSuperblocks(true)
	run(t, c)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < refills; i++ {
		c.FlushICache(textBase, mem.PageSize)
		c.SetPC(textBase)
		if _, err := c.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := c.Stats().ICacheFills; got != refills+1 {
		t.Fatalf("%d icache fills, want %d", got, refills+1)
	}
	if got := (after.TotalAlloc - before.TotalAlloc) / refills; got > 64 {
		t.Errorf("%d bytes allocated per refill, want <= 64", got)
	}
}

// TestBuildBlockAllocations: a block is chained in the store's scratch
// buffer and copied out at its exact length, so a build allocates the
// block and its entries and nothing else.
func TestBuildBlockAllocations(t *testing.T) {
	c := newVM(t, hotLoopProgram(20))
	c.SetSuperblocks(true)
	run(t, c)
	line := c.icache[textBase>>mem.PageShift].code
	var b *superblock
	allocs := testing.AllocsPerRun(100, func() {
		line.ent(0).sb = nil
		b = c.buildBlock(line, textBase)
	})
	if len(b.entries) == 0 {
		t.Fatal("no block starts at the program entry")
	}
	if cap(b.entries) != len(b.entries) {
		t.Errorf("block holds %d entries in capacity %d, want exact", len(b.entries), cap(b.entries))
	}
	if allocs > 2 {
		t.Errorf("%.1f allocations per build, want <= 2", allocs)
	}
}

// TestBTBEntryPacking pins the predictor entry and its exported form at
// 24 bytes: the two uint64s first, then the flag and the counter.
func TestBTBEntryPacking(t *testing.T) {
	if got := unsafe.Sizeof(btbEntry{}); got != 24 {
		t.Errorf("btbEntry is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(BTBState{}); got != 24 {
		t.Errorf("BTBState is %d bytes, want 24", got)
	}
}
