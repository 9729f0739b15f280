package cpu

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// FuzzBlockVsStep is the differential oracle for block chaining: any
// byte string, loaded as text and executed through Run's superblock
// dispatcher, must produce exactly the architectural outcome of
// single-stepping the same bytes — same retired count, same error (or
// none), same registers, pc, cycles, halt state, memory and
// architectural stats. The corpus seeds the structured shapes the
// chainer special-cases (hot loops, NOPN padding, straddling
// instructions, calls, traps, privileged ops); the fuzzer mutates from
// there into arbitrary garbage, which must still agree byte for byte,
// and leave every derived line cache equal to a fresh decode
// (checkLineCaches).
func FuzzBlockVsStep(f *testing.F) {
	f.Add(hotLoopProgram(20))
	{
		// Call/return across a block boundary, stack traffic, XCHG.
		var a isa.Asm
		a.Movi(1, int64(dataBase))
		a.Movi(2, 7)
		a.Push(2)
		a.Pop(3)
		a.Xchg(1, 2)
		a.Call(2) // skip the HLT below... lands on the Ret
		a.Hlt()
		a.Ret()
		a.Hlt()
		f.Add(a.Bytes())
	}
	{
		// NOPN padding, privileged ops, RDTSC, a BRK trap at the end.
		var a isa.Asm
		a.Nop(6)
		a.Sti()
		a.Rdtsc(4)
		a.Cli()
		a.Pause()
		a.Brk()
		f.Add(a.Bytes())
	}
	{
		// An instruction straddling the first page boundary.
		pad := bytes.Repeat([]byte{byte(isa.NOP)}, int(mem.PageSize)-5)
		var a isa.Asm
		a.Movi(3, 0x1234567890)
		a.Hlt()
		f.Add(append(pad, a.Bytes()...))
	}
	{
		// Memory traffic into the data page plus a fault at the end
		// (store to unmapped memory).
		var a isa.Asm
		a.Movi(1, int64(dataBase))
		a.Movi(2, 0xabcd)
		a.St(1, 2, 8, 0)
		a.Ld(3, 1, 8, 0)
		a.Movi(1, 0x10)
		a.St(1, 2, 8, 0)
		a.Hlt()
		f.Add(a.Bytes())
	}

	f.Fuzz(func(t *testing.T, code []byte) {
		if len(code) == 0 {
			return
		}
		if len(code) > 2*int(mem.PageSize) {
			code = code[:2*mem.PageSize]
		}
		build := func() *CPU {
			m := mem.New()
			textLen := mem.PageAlignUp(uint64(len(code)))
			if err := m.Map(textBase, textLen, mem.RW); err != nil {
				t.Fatal(err)
			}
			if err := m.Write(textBase, code); err != nil {
				t.Fatal(err)
			}
			if err := m.Protect(textBase, textLen, mem.RX); err != nil {
				t.Fatal(err)
			}
			if err := m.Map(dataBase, mem.PageSize, mem.RW); err != nil {
				t.Fatal(err)
			}
			if err := m.Map(stackTop-stackSize, stackSize, mem.RW); err != nil {
				t.Fatal(err)
			}
			c := New(m, DefaultConfig())
			c.SetPC(textBase)
			c.SetReg(isa.SP, stackTop)
			// Exercise the interrupt-perturbation epilogue too: block
			// dispatch must service due interrupts at exactly the same
			// instructions as single-stepping.
			c.SetInterruptPerturbation(97, 13)
			c.SetInterruptsEnabled(true)
			return c
		}

		const maxSteps = 2000
		blocks := build()
		blocks.SetSuperblocks(true)
		nA, errA := blocks.Run(maxSteps)
		if errA != nil && strings.Contains(errA.Error(), "exceeded") {
			errA = nil // budget exhausted, not an execution error
		}

		ref := build()
		ref.SetSuperblocks(false) // Step never uses blocks anyway
		var nB uint64
		var errB error
		for nB < maxSteps && !ref.Halted() {
			if err := ref.Step(); err != nil {
				errB = err
				break
			}
			nB++
		}

		if nA != nB {
			t.Fatalf("retired %d via blocks, %d via Step", nA, nB)
		}
		switch {
		case (errA == nil) != (errB == nil):
			t.Fatalf("errors diverge: blocks %v, Step %v", errA, errB)
		case errA != nil && errA.Error() != errB.Error():
			t.Fatalf("error text diverges:\nblocks: %v\nStep:   %v", errA, errB)
		}
		if blocks.PC() != ref.PC() || blocks.Cycles() != ref.Cycles() || blocks.Halted() != ref.Halted() {
			t.Fatalf("state diverges: pc %#x/%#x cycles %d/%d halted %v/%v",
				blocks.PC(), ref.PC(), blocks.Cycles(), ref.Cycles(), blocks.Halted(), ref.Halted())
		}
		for r := 0; r < isa.NumRegs; r++ {
			if blocks.Reg(isa.Reg(r)) != ref.Reg(isa.Reg(r)) {
				t.Fatalf("r%d diverges: %#x vs %#x", r, blocks.Reg(isa.Reg(r)), ref.Reg(isa.Reg(r)))
			}
		}
		sa, sb := blocks.Stats(), ref.Stats()
		for _, s := range []*Stats{&sa, &sb} {
			// Host-accelerator counters legitimately differ between the
			// two dispatch strategies.
			s.DecodeHits, s.DecodeMisses = 0, 0
			s.BlockBuilds, s.BlockHits, s.BlockInsts, s.BlockInvalidates = 0, 0, 0, 0
		}
		if sa != sb {
			t.Fatalf("architectural stats diverge:\nblocks: %+v\nStep:   %+v", sa, sb)
		}
		var da, db [mem.PageSize]byte
		if err := blocks.Mem.Read(dataBase, da[:]); err != nil {
			t.Fatal(err)
		}
		if err := ref.Mem.Read(dataBase, db[:]); err != nil {
			t.Fatal(err)
		}
		if da != db {
			t.Fatal("data page contents diverge")
		}
		checkLineCaches(t, blocks)
		checkLineCaches(t, ref)
	})
}
