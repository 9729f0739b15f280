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
// (checkLineCaches). Each input also runs a second time on a CPU
// sharing the first one's Code store, so the blocks and decodes it
// reuses are held to the same oracle.
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
		runBlocks := func(c *CPU) (uint64, error) {
			c.SetSuperblocks(true)
			n, err := c.Run(maxSteps)
			if err != nil && strings.Contains(err.Error(), "exceeded") {
				err = nil // budget exhausted, not an execution error
			}
			return n, err
		}
		blocks := build()
		nA, errA := runBlocks(blocks)
		// The same bytes at the same address, run on a CPU whose store
		// the first CPU already filled with decodes and blocks.
		shared := build()
		shared.SetCode(blocks.Code())
		nS, errS := runBlocks(shared)

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

		agree(t, "blocks", blocks, nA, errA, ref, nB, errB)
		agree(t, "shared store", shared, nS, errS, ref, nB, errB)
		checkLineCaches(t, shared)
		checkLineCaches(t, blocks)
		checkLineCaches(t, ref)
	})
}

// agree fails t unless c, run through the superblock dispatcher,
// retired exactly what ref did by single-stepping: the same count,
// error, registers, pc, cycles, halt state, architectural stats and
// data page.
func agree(t *testing.T, what string, c *CPU, n uint64, err error, ref *CPU, nRef uint64, errRef error) {
	t.Helper()
	if n != nRef {
		t.Fatalf("%s: retired %d via blocks, %d via Step", what, n, nRef)
	}
	switch {
	case (err == nil) != (errRef == nil):
		t.Fatalf("%s: errors diverge: blocks %v, Step %v", what, err, errRef)
	case err != nil && err.Error() != errRef.Error():
		t.Fatalf("%s: error text diverges:\nblocks: %v\nStep:   %v", what, err, errRef)
	}
	if c.PC() != ref.PC() || c.Cycles() != ref.Cycles() || c.Halted() != ref.Halted() {
		t.Fatalf("%s: state diverges: pc %#x/%#x cycles %d/%d halted %v/%v",
			what, c.PC(), ref.PC(), c.Cycles(), ref.Cycles(), c.Halted(), ref.Halted())
	}
	for r := 0; r < isa.NumRegs; r++ {
		if c.Reg(isa.Reg(r)) != ref.Reg(isa.Reg(r)) {
			t.Fatalf("%s: r%d diverges: %#x vs %#x", what, r, c.Reg(isa.Reg(r)), ref.Reg(isa.Reg(r)))
		}
	}
	if sa, sb := c.Stats(), ref.Stats(); sa != sb {
		t.Fatalf("%s: architectural stats diverge:\nblocks: %+v\nStep:   %+v", what, sa, sb)
	}
	var da, db [mem.PageSize]byte
	if err := c.Mem.Read(dataBase, da[:]); err != nil {
		t.Fatal(err)
	}
	if err := ref.Mem.Read(dataBase, db[:]); err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Fatalf("%s: data page contents diverge", what)
	}
}
