package machine

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// TestAddCPUPropagatesSuperblocks: late-added hardware threads must
// inherit the primary CPU's superblock setting — an SMP machine runs
// one dispatch strategy, not a mix.
func TestAddCPUPropagatesSuperblocks(t *testing.T) {
	for _, on := range []bool{true, false} {
		m, err := New(buildPokeImage(t))
		if err != nil {
			t.Fatal(err)
		}
		m.CPU.SetSuperblocks(on)
		c, err := m.AddCPU()
		if err != nil {
			t.Fatal(err)
		}
		if c.SuperblocksEnabled() != on {
			t.Errorf("AddCPU with primary superblocks=%v: new CPU has %v",
				on, c.SuperblocksEnabled())
		}
	}
}

// TestTextPokeInvalidatesSuperblocks drives the PR 5 cross-modifying
// poke protocol over text that every CPU holds superblocks for: the
// poke's phase flushes must kill the blocks on all CPUs (counted in
// BlockInvalidates) and the next execution must run the patched bytes
// — never a stale block.
func TestTextPokeInvalidatesSuperblocks(t *testing.T) {
	m, err := New(buildPokeImage(t))
	if err != nil {
		t.Fatal(err)
	}
	m.CPU.SetSuperblocks(true)
	extra, err := m.AddCPU()
	if err != nil {
		t.Fatal(err)
	}

	// Warm both CPUs to block steady state on the spin loop.
	for i := 0; i < 2; i++ {
		if _, err := m.Call(m.MustSymbol("spin")); err != nil {
			t.Fatal(err)
		}
		if err := m.StartCall(extra, "spin"); err != nil {
			t.Fatal(err)
		}
		if _, err := extra.Run(1 << 40); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range m.CPUs() {
		if c.TierStats().BlockBuilds == 0 {
			t.Fatalf("cpu %d built no superblocks on the spin loop", i)
		}
	}

	// Poke the 6-byte decrement from -1 to -2: the count starts even,
	// so the loop still terminates, in half the iterations — stale
	// block execution is observable as instruction count.
	site := m.MustSymbol("site")
	var a isa.Asm
	a.AluI(isa.ADDI, 1, -2)
	if err := m.TextPoke(site, a.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i, c := range m.CPUs() {
		if c.TierStats().BlockInvalidates == 0 {
			t.Errorf("cpu %d: TextPoke invalidated no superblocks", i)
		}
	}

	// The loop body is 100000 iterations of -1; patched to -2 it takes
	// half the iterations. Count instructions to observe the patch.
	before := m.CPU.Stats().Instructions
	if _, err := m.Call(m.MustSymbol("spin")); err != nil {
		t.Fatal(err)
	}
	ran := m.CPU.Stats().Instructions - before
	// movi + 50000*(addi,cmpi,jcc) + ret ≈ 150002; stale -1 would run
	// ~300002. Split the difference.
	if ran > 200000 {
		t.Errorf("post-poke spin retired %d instructions; stale pre-poke block still executing", ran)
	}
}

// TestInterleaveSuperblockInvariance pins SMP interleaving semantics:
// Interleave single-steps at instruction granularity regardless of the
// superblock knob, so quantum boundaries, step budgets and final state
// are identical with superblocks on and off.
func TestInterleaveSuperblockInvariance(t *testing.T) {
	runOnce := func(on bool) (uint64, uint64, cpu.Stats) {
		m, err := New(buildPokeImage(t))
		if err != nil {
			t.Fatal(err)
		}
		m.CPU.SetSuperblocks(on)
		extra, err := m.AddCPU()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.StartCall(m.CPU, "spin"); err != nil {
			t.Fatal(err)
		}
		if err := m.StartCall(extra, "spin"); err != nil {
			t.Fatal(err)
		}
		steps, err := m.Interleave(m.CPUs(), []int{7, 3}, 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return steps, m.CPU.Cycles() + extra.Cycles(), m.TotalStats()
	}
	onSteps, onCycles, onStats := runOnce(true)
	offSteps, offCycles, offStats := runOnce(false)
	if onSteps != offSteps || onCycles != offCycles || onStats != offStats {
		t.Errorf("Interleave diverges with superblocks on/off:\non:  steps %d cycles %d %+v\noff: steps %d cycles %d %+v",
			onSteps, onCycles, onStats, offSteps, offCycles, offStats)
	}
}
