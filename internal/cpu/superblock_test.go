package cpu

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// hotLoopProgram is the benchmark's hot loop: MOVI, then a 5-entry
// straight-line body ending in a backward JCC, then HLT.
func hotLoopProgram(iters int32) []byte {
	var a isa.Asm
	a.Movi(1, 0)
	loop := a.Len()
	a.AluI(isa.ADDI, 1, 1)
	a.AluI(isa.XORI, 2, 5)
	a.Alu(isa.ADD, 3, 2)
	a.CmpI(1, iters)
	jccAt := a.Len()
	a.Jcc(isa.LT, int32(loop-(jccAt+6)))
	a.Hlt()
	return a.Bytes()
}

func TestSuperblockHotLoop(t *testing.T) {
	c := newVM(t, hotLoopProgram(100))
	c.SetSuperblocks(true)
	run(t, c)
	s, ts := c.Stats(), c.TierStats()
	if ts.BlockBuilds == 0 {
		t.Error("no superblocks built on a hot loop")
	}
	if ts.BlockHits < 100 {
		t.Errorf("BlockHits = %d, want >= 100 (one per loop iteration)", ts.BlockHits)
	}
	if ts.BlockInsts*10 < s.Instructions*9 {
		t.Errorf("BlockInsts = %d of %d instructions, want >= 90%% block-dispatched",
			ts.BlockInsts, s.Instructions)
	}
	// The decode-cache invariant DecodeHits+DecodeMisses == Instructions
	// must survive block dispatch (block-retired instructions count as
	// decode hits: they execute from predecoded state).
	if ts.DecodeHits+ts.DecodeMisses != s.Instructions {
		t.Errorf("DecodeHits %d + DecodeMisses %d != Instructions %d",
			ts.DecodeHits, ts.DecodeMisses, s.Instructions)
	}
}

func TestSuperblockDisabled(t *testing.T) {
	c := newVM(t, hotLoopProgram(100))
	c.SetSuperblocks(false)
	if c.SuperblocksEnabled() {
		t.Fatal("SetSuperblocks(false) did not stick")
	}
	run(t, c)
	s := c.TierStats()
	if s.BlockBuilds != 0 || s.BlockHits != 0 || s.BlockInsts != 0 || s.BlockInvalidates != 0 {
		t.Errorf("superblock stats nonzero with superblocks disabled: %+v", s)
	}
}

// TestSuperblockStateInvariance runs the same program with superblocks
// on and off and requires identical architectural outcomes: registers,
// pc, cycles and every simulated stat.
func TestSuperblockStateInvariance(t *testing.T) {
	exec := func(on bool) *CPU {
		c := newVM(t, hotLoopProgram(1000))
		c.SetSuperblocks(on)
		c.SetInterruptPerturbation(997, 13)
		c.SetInterruptsEnabled(true)
		run(t, c)
		return c
	}
	a, b := exec(true), exec(false)
	if a.Cycles() != b.Cycles() {
		t.Errorf("cycles differ: superblocks on %d, off %d", a.Cycles(), b.Cycles())
	}
	for r := 0; r < isa.NumRegs; r++ {
		if a.Reg(isa.Reg(r)) != b.Reg(isa.Reg(r)) {
			t.Errorf("r%d differs: %#x vs %#x", r, a.Reg(isa.Reg(r)), b.Reg(isa.Reg(r)))
		}
	}
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Errorf("architectural stats differ:\non:  %+v\noff: %+v", sa, sb)
	}
}

// TestSuperblockRunBudgetExact pins Run's step accounting with blocks
// on: a Run bounded to fewer instructions than a block holds must
// retire exactly the budget and leave the same state as single-stepped
// execution — blocks never overshoot maxSteps.
func TestSuperblockRunBudgetExact(t *testing.T) {
	for _, budget := range []uint64{1, 2, 3, 5, 7, 11, 64} {
		chunked := newVM(t, hotLoopProgram(50))
		chunked.SetSuperblocks(true)
		stepped := newVM(t, hotLoopProgram(50))
		stepped.SetSuperblocks(false)

		var total uint64
		for !chunked.Halted() {
			n, err := chunked.Run(budget)
			if err != nil && !strings.Contains(err.Error(), "exceeded") {
				t.Fatalf("budget %d: %v", budget, err)
			}
			if n > budget {
				t.Fatalf("budget %d: Run retired %d steps", budget, n)
			}
			if !chunked.Halted() && n != budget {
				t.Fatalf("budget %d: Run retired %d steps without halting", budget, n)
			}
			total += n

			// Advance the reference by the same count and compare.
			for i := uint64(0); i < n; i++ {
				if stepped.Halted() {
					break
				}
				if err := stepped.Step(); err != nil {
					t.Fatalf("budget %d: reference step: %v", budget, err)
				}
			}
			if chunked.PC() != stepped.PC() || chunked.Cycles() != stepped.Cycles() {
				t.Fatalf("budget %d after %d steps: pc/cycles diverge: %#x/%d vs %#x/%d",
					budget, total, chunked.PC(), chunked.Cycles(), stepped.PC(), stepped.Cycles())
			}
		}
		if chunked.Stats().Instructions != total {
			t.Errorf("budget %d: Instructions %d != retired %d",
				budget, chunked.Stats().Instructions, total)
		}
	}
}

// multiPageProgram lays one tiny block on each of three consecutive
// text pages, chained by jumps: page N sets a register and jumps to
// page N+1; the last page halts.
func multiPageProgram(t *testing.T) *CPU {
	t.Helper()
	m := mem.New()
	const pages = 3
	if err := m.Map(textBase, pages*mem.PageSize, mem.RWX); err != nil {
		t.Fatal(err)
	}
	for p := uint64(0); p < pages; p++ {
		var a isa.Asm
		a.Movi(isa.Reg(1+p), int64(p+1))
		if p == pages-1 {
			a.Hlt()
		} else {
			// JMP to the next page start: rel is from the end of the
			// 5-byte JMP.
			at := uint64(a.Len())
			a.Jmp(int32(mem.PageSize - (at + 5)))
		}
		if err := m.Write(textBase+p*mem.PageSize, a.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	c := New(m, DefaultConfig())
	c.SetSuperblocks(true)
	c.SetPC(textBase)
	return c
}

// TestFlushOverlapInvalidatesBlocksExactly drives flush ranges that
// partially overlap superblock lines — zero-length, starting mid-block,
// ending mid-line, and a wide multi-line span — and checks blocks die
// exactly with their lines: touched pages rebuild, untouched pages
// keep their blocks.
func TestFlushOverlapInvalidatesBlocksExactly(t *testing.T) {
	c := multiPageProgram(t)
	// Blocks form lazily — the first visit to a pc fills the line via
	// the slow path, the next visit chains the block — so run to the
	// steady state: two blocks on each jump page (the page-start chain
	// and the mid-page jump built on first touch), one on the halting
	// page. 5 real blocks total.
	steady := func() {
		for i := 0; i < 2; i++ {
			c.SetPC(textBase)
			if _, err := c.Run(1000); err != nil {
				t.Fatal(err)
			}
		}
	}
	steady()
	const steadyBuilds = 5
	if got := c.TierStats().BlockBuilds; got != steadyBuilds {
		t.Fatalf("BlockBuilds = %d at steady state, want %d", got, steadyBuilds)
	}
	steady()
	if got := c.TierStats().BlockBuilds; got != steadyBuilds {
		t.Fatalf("BlockBuilds = %d after steady re-run, want %d (no rebuild churn)",
			got, steadyBuilds)
	}
	// Per-page real-block counts the flush assertions below rely on.
	perPage := [3]uint64{2, 2, 1}

	builds, invals := uint64(steadyBuilds), uint64(0)
	check := func(what string) {
		t.Helper()
		steady()
		if s := c.TierStats(); s.BlockInvalidates != invals || s.BlockBuilds != builds {
			t.Fatalf("after %s: invalidates %d builds %d, want %d/%d",
				what, s.BlockInvalidates, s.BlockBuilds, invals, builds)
		}
	}

	// Zero-length flush: a no-op, nothing invalidated, nothing rebuilt.
	c.FlushICache(textBase+10, 0)
	check("zero-length flush")

	// Flush starting mid-block on page 0 (inside the MOVI's bytes):
	// only page 0's line and blocks die; pages 1-2 keep theirs.
	c.FlushICache(textBase+5, 1)
	invals += perPage[0]
	builds += perPage[0]
	check("mid-block flush")

	// Flush ending mid-line on page 1 (one byte into it): pages 0 and 1
	// die, page 2 survives.
	c.FlushICache(textBase, mem.PageSize+1)
	invals += perPage[0] + perPage[1]
	builds += perPage[0] + perPage[1]
	check("mid-line flush")

	// Wide multi-line flush from the last byte of page 0 across
	// everything: all three lines and their blocks die.
	c.FlushICache(textBase+mem.PageSize-1, 2*mem.PageSize+2)
	invals += perPage[0] + perPage[1] + perPage[2]
	builds += perPage[0] + perPage[1] + perPage[2]
	check("wide flush")
}

// TestSuperblockStaleUntilFlush pins the icache contract under block
// dispatch: patching text without a flush keeps executing the old
// block; the flush (here partially overlapping the block's line) makes
// the patch visible.
func TestSuperblockStaleUntilFlush(t *testing.T) {
	var a isa.Asm
	a.Movi(1, 111)
	a.Hlt()
	c := newVM(t, a.Bytes())
	c.SetSuperblocks(true)
	run(t, c)
	if c.Reg(1) != 111 {
		t.Fatalf("r1 = %d, want 111", c.Reg(1))
	}

	var b isa.Asm
	b.Movi(1, 222)
	if err := c.Mem.WriteForce(textBase, b.Bytes()); err != nil {
		t.Fatal(err)
	}
	c.SetPC(textBase)
	run(t, c)
	if c.Reg(1) != 111 {
		t.Errorf("r1 = %d before flush, want stale 111", c.Reg(1))
	}

	c.FlushICache(textBase, 1) // overlaps the block's first byte only
	c.SetPC(textBase)
	run(t, c)
	if c.Reg(1) != 222 {
		t.Errorf("r1 = %d after flush, want 222", c.Reg(1))
	}
}

// TestSuperblockBRKFallsToSlowPath plants a BRK over block text (the
// poke protocol's phase 1: write the trap byte, then flush) and
// requires the next Run to take the trap — the stale block must not
// keep executing, and the rejected pc must not grow a block.
func TestSuperblockBRKFallsToSlowPath(t *testing.T) {
	c := newVM(t, hotLoopProgram(100))
	c.SetSuperblocks(true)
	run(t, c)
	if c.TierStats().BlockBuilds == 0 {
		t.Fatal("no blocks built")
	}

	if err := c.Mem.WriteForce(textBase, []byte{byte(isa.BRK)}); err != nil {
		t.Fatal(err)
	}
	c.FlushICache(textBase, 1)
	c.SetPC(textBase)
	_, err := c.Run(1000)
	trap := AsTrap(err)
	if trap == nil {
		t.Fatalf("Run over BRK: got %v, want TrapFault", err)
	}
	if trap.PC != textBase {
		t.Errorf("trap at %#x, want %#x", trap.PC, textBase)
	}
	if got := c.Stats().Traps; got != 1 {
		t.Errorf("Traps = %d, want 1", got)
	}
}

// TestSuperblockToggleMidRun flips the knob between runs on one CPU:
// blocks built while enabled are reused on re-enable and ignored while
// disabled, with identical execution results throughout.
func TestSuperblockToggleMidRun(t *testing.T) {
	c := newVM(t, hotLoopProgram(100))
	c.SetSuperblocks(true)
	rerun := func() {
		c.SetPC(textBase)
		c.SetReg(2, 0)
		c.SetReg(3, 0)
		run(t, c)
	}
	rerun()
	// A second run reaches block steady state (the entry pc's block
	// forms only once its line is resident).
	rerun()
	builds := c.TierStats().BlockBuilds
	r3 := c.Reg(3)

	c.SetSuperblocks(false)
	rerun()
	if c.Reg(3) != r3 {
		t.Errorf("r3 = %d with blocks off, want %d", c.Reg(3), r3)
	}

	c.SetSuperblocks(true)
	rerun()
	if c.Reg(3) != r3 {
		t.Errorf("r3 = %d after re-enable, want %d", c.Reg(3), r3)
	}
	if c.TierStats().BlockBuilds != builds {
		t.Errorf("BlockBuilds = %d after re-enable, want %d (blocks reused, not rebuilt)",
			c.TierStats().BlockBuilds, builds)
	}
}
