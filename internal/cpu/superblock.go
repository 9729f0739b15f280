// The superblock interpreter.
//
// The decode cache (decodecache.go) removed re-decoding from the hot
// path, but every instruction still paid one full trip through Step's
// dispatch machinery: halted check, cache probe, the monolithic exec
// switch, and the Run loop's own bookkeeping. Superblocks remove that
// per-instruction overhead the way trace-based interpreters do (cf.
// Wong et al., "Faster Variational Execution with Transparent Bytecode
// Transformation"): straight-line runs of instructions are chained
// into a block once, then replayed by a threaded-dispatch loop that
// calls one pre-resolved handler function per instruction.
//
// Formation. A block starts at the first pc executed through the fast
// path whose icache line is already resident, and chains decoded
// instructions forward while they are straight-line, stopping at
//
//   - control flow (JCC, JMP, CALL, CLLR, CLLM, RET) — included as the
//     block's final instruction, since its handler computes the next
//     pc itself;
//   - HLT, BRK and HCALL — never included: HLT must bounce control
//     back to the Run loop's halt check, a resident BRK byte must trap
//     through the slow path, and a hypercall hands the CPU to an
//     arbitrary host handler;
//   - any byte sequence that does not decode entirely from this line's
//     snapshot (instructions straddling the line boundary draw bytes
//     from a second line with an independent lifetime, exactly the
//     rule cacheInst follows);
//   - the line boundary and a maximum block length.
//
// A pc where no block can start (it holds HLT, BRK, HCALL or
// undecodable bytes) caches a shared zero-length sentinel so the fast
// path stops re-attempting the build and falls through to the decode
// cache.
//
// Invalidation. Blocks are derived exclusively from the line's byte
// snapshot and are stored on the line itself, so FlushICache drops
// them together with the line — the same lifetime the decode cache
// has, and therefore the same lifetime the BRK text-poke protocol
// already relies on: the poke's phase-1 flush kills every block built
// over the old bytes before any CPU can fetch the breakpoint.
// Patching *without* a flush keeps executing the stale block, just as
// the raw interpreter keeps executing the stale bytes.
//
// Semantics. Block execution is bit-identical to single-stepping: each
// handler mirrors its exec() case exactly (costs, stat counters,
// predictor updates, operation order on fault paths), and the dispatch
// loop runs the same per-instruction epilogue — cycle charge, pc
// advance, interrupt-perturbation check. Blocks run only from the
// fast path, which Run selects when no tracer is
// attached and no fetch fault is armed for this thread (stepHooked),
// so the observability hooks and fetch faults always see true
// single-instruction execution. A fault injector whose plan arms only
// runtime-side points (protection flips, dropped flushes) keeps the
// fast path: those hooks fire in mem and FlushICache, identically from
// blocks and from Step. internal/difftest pins E1/E4 simulated cycles
// bit-identical with superblocks on and off, and with and without an
// armed fetch fault.

package cpu

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
)

// maxBlockInsts bounds block length. Long enough to swallow any hot
// loop body or function prologue in one dispatch, short enough that
// clamping against a Run step budget stays cheap.
const maxBlockInsts = 64

// superblocksDefault is the construction-time default for new CPUs,
// overridable globally with SetSuperblocksDefault (mvbench's
// -superblocks flag, which the superblock on/off smoke gate drives).
var superblocksDefault = true

// SetSuperblocksDefault sets whether newly constructed CPUs use the
// superblock interpreter. Existing CPUs are unaffected.
func SetSuperblocksDefault(on bool) { superblocksDefault = on }

// SuperblocksDefault reports the construction-time default.
func SuperblocksDefault() bool { return superblocksDefault }

// SetSuperblocks enables or disables this CPU's superblock layer.
// Toggling is safe at any point: blocks are always consistent with
// their line's byte snapshot, so re-enabling reuses them.
func (c *CPU) SetSuperblocks(on bool) { c.superblocks = on }

// SuperblocksEnabled reports whether this CPU executes straight-line
// runs through cached superblocks.
func (c *CPU) SuperblocksEnabled() bool { return c.superblocks }

// sbFn executes one block entry. It returns the next pc (e.next for
// straight-line instructions; terminators compute their own) and the
// cycle cost the common epilogue charges. On error nothing retired:
// registers, pc and cycles are exactly as the corresponding exec()
// case leaves them.
type sbFn func(c *CPU, e *sbEntry) (next uint64, cost int, err error)

// sbEntry is one predecoded, pre-dispatched instruction of a block.
type sbEntry struct {
	fn   sbFn
	in   isa.Inst
	pc   uint64
	next uint64 // pc + in.Len
}

// superblock is a straight-line chain of instructions, optionally
// terminated by a single control-flow instruction.
type superblock struct {
	entries []sbEntry
}

// sbReject is the shared "no block starts here" sentinel: a pc whose
// instruction cannot head a block (HLT, BRK, HCALL, undecodable)
// caches it so the fast path probes once and falls through.
var sbReject = &superblock{}

// cachedBlock returns the block starting at pc (which may be the
// sbReject sentinel) and the resident line, either of which may be
// nil. It shares the decode cache's last-line memo.
func (c *CPU) cachedBlock(pc uint64) (*superblock, *icLine) {
	pn := pc >> mem.PageShift
	line := c.lastLine
	if line == nil || c.lastPN != pn {
		var ok bool
		line, ok = c.icache[pn]
		if !ok {
			return nil, nil
		}
		c.lastPN, c.lastLine = pn, line
	}
	i := line.idx[pc&(mem.PageSize-1)]
	if i == 0 {
		return nil, line
	}
	return line.ents[i-1].sb, line
}

// sbTerminator reports whether op ends a block as its final,
// included instruction.
func sbTerminator(op isa.Op) bool {
	switch op {
	case isa.JCC, isa.JMP, isa.CALL, isa.CLLR, isa.CLLM, isa.RET:
		return true
	}
	return false
}

// buildBlock decodes a superblock starting at pc from line's byte
// snapshot and caches it on the line. Build is pure host work: no
// simulated state changes and no simulated cycles pass.
func (c *CPU) buildBlock(line *icLine, pc uint64) *superblock {
	pn := pc >> mem.PageShift
	b := &superblock{}
	cur := pc
	for len(b.entries) < maxBlockInsts && cur>>mem.PageShift == pn {
		off := cur & (mem.PageSize - 1)
		w := line.bytes[off:]
		if len(w) > maxInstLen {
			w = w[:maxInstLen]
		}
		in, err := decodeWindow(w)
		if err != nil {
			// Undecodable from this line alone — possibly a valid
			// instruction straddling into the next line, whose
			// lifetime is independent. The slow path handles it.
			break
		}
		fn := sbOps[in.Op]
		if fn == nil {
			break // HLT, BRK, HCALL or an op with no handler
		}
		b.entries = append(b.entries, sbEntry{fn: fn, in: in, pc: cur, next: cur + uint64(in.Len)})
		if sbTerminator(in.Op) {
			break
		}
		cur += uint64(in.Len)
	}
	if len(b.entries) == 0 {
		b = sbReject
	} else {
		line.nsb++
		c.tier.BlockBuilds++
	}
	line.ent(pc & (mem.PageSize - 1)).sb = b
	return b
}

// execBlock replays up to budget entries of b through threaded
// dispatch. It returns the number of instructions that fully retired.
// The per-instruction epilogue is exec()'s: charge the cost, advance
// the pc, service a due perturbation interrupt. Stats that exec()
// counts unconditionally per dispatched instruction (Instructions, and
// DecodeHits — block entries are predecoded, so dispatching one is a
// decode-cache hit) are accumulated locally and flushed on every exit
// path, including the not-retired dispatch of a faulting instruction,
// mirroring exec() counting Instructions before the opcode runs.
func (c *CPU) execBlock(b *superblock, budget uint64) (uint64, error) {
	entries := b.entries
	if budget < uint64(len(entries)) {
		entries = entries[:budget]
	}
	var done uint64
	for i := range entries {
		e := &entries[i]
		next, cost, err := e.fn(c, e)
		if err != nil {
			dispatched := done + 1
			c.stats.Instructions += dispatched
			c.tier.BlockInsts += dispatched
			c.tier.DecodeHits += dispatched
			return done, &execError{e.pc, err}
		}
		done++
		c.cycles += uint64(cost)
		c.pc = next
		if c.intrPeriod > 0 && c.intrOn && c.cycles >= c.nextIntr {
			// Service an asynchronous interrupt: time passes, state is
			// preserved (the handler saves and restores everything).
			c.cycles += c.intrCost
			c.stats.Interrupts++
			c.nextIntr = c.cycles + c.intrPeriod
		}
	}
	c.stats.Instructions += done
	c.tier.BlockInsts += done
	c.tier.DecodeHits += done
	c.tier.BlockHits++
	return done, nil
}

// stepFastN is the fast-path dispatcher Run drives when stepHooked
// reports false: it executes up to budget instructions (at least one),
// chaining block to block — a terminator whose target heads another
// resident or buildable block continues dispatching without
// re-entering Run (HLT never lives inside a block, so the halted
// check cannot be skipped past). A pc with no block retires exactly
// one instruction via the decode cache or the full fetch-and-decode
// path. It returns the number of instructions that retired.
func (c *CPU) stepFastN(budget uint64) (uint64, error) {
	if c.halted {
		return 0, fmt.Errorf("cpu: step on halted CPU")
	}
	pc := c.pc
	if c.superblocks {
		var total uint64
		for total < budget {
			b, line := c.cachedBlock(pc)
			if b == nil && line != nil {
				b = c.buildBlock(line, pc)
			}
			if b == nil || len(b.entries) == 0 {
				break
			}
			n, err := c.execBlock(b, budget-total)
			total += n
			if err != nil {
				return total, err
			}
			pc = c.pc
			if c.cycleStop != 0 && c.cycles >= c.cycleStop {
				// RunUntil's pause point: between block dispatches, never
				// inside one. total > 0 here — execBlock either retired at
				// least one instruction or returned the error above.
				return total, nil
			}
		}
		if total > 0 {
			return total, nil
		}
	}
	// Single-instruction fall-through: a faulting instruction did not
	// retire, so it must not count against the caller's step budget —
	// the same contract as Run's Step loop.
	if in := c.cachedInst(pc); in != nil {
		c.tier.DecodeHits++
		if err := c.exec(*in); err != nil {
			return 0, err
		}
		return 1, nil
	}
	if err := c.stepDecode(pc); err != nil {
		return 0, err
	}
	return 1, nil
}

// --- the threaded-dispatch table ---
//
// One handler per opcode, indexed by the opcode byte. Every handler is
// a line-for-line mirror of its exec() case: same costs, same stat
// counters, same operation order on fault paths (the difftests and the
// chaining fuzz test hold them to it). Handlers never touch tracers or
// the fetch-fault hook — blocks only run when neither is in play (see
// stepHooked). Memory-side fault hooks fire inside Mem, exactly as
// they do under exec().

var sbOps [256]sbFn

func init() {
	for _, op := range []isa.Op{isa.NOP, isa.NOPN} {
		sbOps[op] = func(c *CPU, e *sbEntry) (uint64, int, error) {
			return e.next, c.cfg.CostNop, nil
		}
	}
	sbOps[isa.MOVI] = func(c *CPU, e *sbEntry) (uint64, int, error) {
		c.regs[e.in.Rd] = uint64(e.in.Imm)
		return e.next, c.cfg.CostALU, nil
	}
	sbOps[isa.MOV] = func(c *CPU, e *sbEntry) (uint64, int, error) {
		c.regs[e.in.Rd] = c.regs[e.in.Rs]
		return e.next, c.cfg.CostALU, nil
	}
	sbOps[isa.LEA] = func(c *CPU, e *sbEntry) (uint64, int, error) {
		c.regs[e.in.Rd] = c.regs[e.in.Rs] + uint64(e.in.Imm)
		return e.next, c.cfg.CostALU, nil
	}
	for _, op := range []isa.Op{isa.LD, isa.LDS} {
		sbOps[op] = func(c *CPU, e *sbEntry) (uint64, int, error) {
			addr := c.regs[e.in.Rs] + uint64(e.in.Imm)
			v, err := c.Mem.ReadUint(addr, e.in.Size)
			if err != nil {
				return 0, 0, err
			}
			if e.in.Op == isa.LDS {
				shift := 64 - 8*e.in.Size
				v = uint64(int64(v<<shift) >> shift)
			}
			c.regs[e.in.Rd] = v
			c.stats.Loads++
			return e.next, c.cfg.CostLoad, nil
		}
	}
	sbOps[isa.ST] = func(c *CPU, e *sbEntry) (uint64, int, error) {
		addr := c.regs[e.in.Rd] + uint64(e.in.Imm)
		if err := c.Mem.WriteUint(addr, e.in.Size, c.regs[e.in.Rs]); err != nil {
			return 0, 0, err
		}
		c.stats.Stores++
		return e.next, c.cfg.CostStore, nil
	}
	// ALU ops that cannot fault get direct handlers — no trip through
	// the alu() switch, whose dispatch cost dominates 1-cycle ops on
	// the host. The divide family keeps the generic path: it is rare
	// and carries the division-by-zero error return.
	type aluFn func(a, b uint64) uint64
	aluPairs := []struct {
		reg, imm isa.Op
		f        aluFn
	}{
		{isa.ADD, isa.ADDI, func(a, b uint64) uint64 { return a + b }},
		{isa.SUB, isa.SUBI, func(a, b uint64) uint64 { return a - b }},
		{isa.AND, isa.ANDI, func(a, b uint64) uint64 { return a & b }},
		{isa.OR, isa.ORI, func(a, b uint64) uint64 { return a | b }},
		{isa.XOR, isa.XORI, func(a, b uint64) uint64 { return a ^ b }},
		{isa.SHL, isa.SHLI, func(a, b uint64) uint64 { return a << (b & 63) }},
		{isa.SHR, isa.SHRI, func(a, b uint64) uint64 { return a >> (b & 63) }},
		{isa.SAR, isa.SARI, func(a, b uint64) uint64 { return uint64(int64(a) >> (b & 63)) }},
	}
	for _, p := range aluPairs {
		f := p.f
		sbOps[p.reg] = func(c *CPU, e *sbEntry) (uint64, int, error) {
			c.regs[e.in.Rd] = f(c.regs[e.in.Rd], c.regs[e.in.Rs])
			return e.next, c.cfg.CostALU, nil
		}
		sbOps[p.imm] = func(c *CPU, e *sbEntry) (uint64, int, error) {
			c.regs[e.in.Rd] = f(c.regs[e.in.Rd], uint64(e.in.Imm))
			return e.next, c.cfg.CostALU, nil
		}
	}
	sbOps[isa.NEG] = func(c *CPU, e *sbEntry) (uint64, int, error) {
		c.regs[e.in.Rd] = -c.regs[e.in.Rd]
		return e.next, c.cfg.CostALU, nil
	}
	sbOps[isa.NOT] = func(c *CPU, e *sbEntry) (uint64, int, error) {
		c.regs[e.in.Rd] = ^c.regs[e.in.Rd]
		return e.next, c.cfg.CostALU, nil
	}
	sbOps[isa.MUL] = func(c *CPU, e *sbEntry) (uint64, int, error) {
		c.regs[e.in.Rd] *= c.regs[e.in.Rs]
		return e.next, c.cfg.CostMul, nil
	}
	sbOps[isa.MULI] = func(c *CPU, e *sbEntry) (uint64, int, error) {
		c.regs[e.in.Rd] *= uint64(e.in.Imm)
		return e.next, c.cfg.CostMul, nil
	}
	for _, op := range []isa.Op{isa.DIV, isa.MOD, isa.UDIV, isa.UMOD} {
		sbOps[op] = func(c *CPU, e *sbEntry) (uint64, int, error) {
			cost, err := c.alu(e.in.Op, e.in.Rd, c.regs[e.in.Rs])
			if err != nil {
				return 0, 0, err
			}
			return e.next, cost, nil
		}
	}
	for _, op := range []isa.Op{isa.DIVI, isa.MODI} {
		sbOps[op] = func(c *CPU, e *sbEntry) (uint64, int, error) {
			cost, err := c.alu(immToReg(e.in.Op), e.in.Rd, uint64(e.in.Imm))
			if err != nil {
				return 0, 0, err
			}
			return e.next, cost, nil
		}
	}
	sbOps[isa.CMP] = func(c *CPU, e *sbEntry) (uint64, int, error) {
		c.cmpA, c.cmpB = int64(c.regs[e.in.Rd]), int64(c.regs[e.in.Rs])
		return e.next, c.cfg.CostCmp, nil
	}
	sbOps[isa.CMPI] = func(c *CPU, e *sbEntry) (uint64, int, error) {
		c.cmpA, c.cmpB = int64(c.regs[e.in.Rd]), e.in.Imm
		return e.next, c.cfg.CostCmp, nil
	}
	sbOps[isa.SETCC] = func(c *CPU, e *sbEntry) (uint64, int, error) {
		if e.in.Cond.Eval(c.cmpA, c.cmpB) {
			c.regs[e.in.Rd] = 1
		} else {
			c.regs[e.in.Rd] = 0
		}
		return e.next, c.cfg.CostALU, nil
	}
	sbOps[isa.JCC] = func(c *CPU, e *sbEntry) (uint64, int, error) {
		taken := e.in.Cond.Eval(c.cmpA, c.cmpB)
		cost := c.cfg.CostBranch
		if !c.predictCond(e.pc, taken) {
			cost += c.cfg.MispredictPenalty
			c.stats.Mispredicts++
		}
		c.stats.Branches++
		next := e.next
		if taken {
			next += uint64(e.in.Imm)
		}
		return next, cost, nil
	}
	sbOps[isa.JMP] = func(c *CPU, e *sbEntry) (uint64, int, error) {
		return e.next + uint64(e.in.Imm), c.cfg.CostJmp, nil
	}
	sbOps[isa.CALL] = func(c *CPU, e *sbEntry) (uint64, int, error) {
		c.rasPush(e.next)
		if err := c.push(e.next); err != nil {
			return 0, 0, err
		}
		c.stats.Calls++
		return e.next + uint64(e.in.Imm), c.cfg.CostCall, nil
	}
	sbOps[isa.CLLM] = func(c *CPU, e *sbEntry) (uint64, int, error) {
		ptr, err := c.Mem.ReadUint(uint64(e.in.Imm), 8)
		if err != nil {
			return 0, 0, err
		}
		if ptr == 0 {
			return 0, 0, fmt.Errorf("call through null function pointer at %#x", uint64(e.in.Imm))
		}
		c.stats.Loads++
		cost := c.cfg.CostLoad + c.cfg.CostCallR
		if !c.predictIndirect(e.pc, ptr) {
			cost += c.cfg.MispredictPenalty
			c.stats.Mispredicts++
		}
		c.stats.Branches++
		c.rasPush(e.next)
		if err := c.push(e.next); err != nil {
			return 0, 0, err
		}
		c.stats.Calls++
		return ptr, cost, nil
	}
	sbOps[isa.CLLR] = func(c *CPU, e *sbEntry) (uint64, int, error) {
		target := c.regs[e.in.Rs]
		cost := c.cfg.CostCallR
		if !c.predictIndirect(e.pc, target) {
			cost += c.cfg.MispredictPenalty
			c.stats.Mispredicts++
		}
		c.stats.Branches++
		c.rasPush(e.next)
		if err := c.push(e.next); err != nil {
			return 0, 0, err
		}
		c.stats.Calls++
		return target, cost, nil
	}
	sbOps[isa.RET] = func(c *CPU, e *sbEntry) (uint64, int, error) {
		ret, err := c.pop()
		if err != nil {
			return 0, 0, err
		}
		cost := c.cfg.CostRet
		if !c.rasPop(ret) {
			cost += c.cfg.MispredictPenalty
			c.stats.Mispredicts++
		}
		return ret, cost, nil
	}
	sbOps[isa.PUSH] = func(c *CPU, e *sbEntry) (uint64, int, error) {
		if err := c.push(c.regs[e.in.Rd]); err != nil {
			return 0, 0, err
		}
		return e.next, c.cfg.CostPush, nil
	}
	sbOps[isa.POP] = func(c *CPU, e *sbEntry) (uint64, int, error) {
		v, err := c.pop()
		if err != nil {
			return 0, 0, err
		}
		c.regs[e.in.Rd] = v
		return e.next, c.cfg.CostPop, nil
	}
	sbOps[isa.SPAD] = func(c *CPU, e *sbEntry) (uint64, int, error) {
		c.regs[isa.SP] += uint64(e.in.Imm)
		return e.next, c.cfg.CostALU, nil
	}
	sbOps[isa.XCHG] = func(c *CPU, e *sbEntry) (uint64, int, error) {
		addr := c.regs[e.in.Rd]
		old, err := c.Mem.ReadUint(addr, 8)
		if err != nil {
			return 0, 0, err
		}
		if err := c.Mem.WriteUint(addr, 8, c.regs[e.in.Rs]); err != nil {
			return 0, 0, err
		}
		c.regs[e.in.Rs] = old
		c.stats.Loads++
		c.stats.Stores++
		return e.next, c.cfg.CostXchg, nil
	}
	sbOps[isa.PAUSE] = func(c *CPU, e *sbEntry) (uint64, int, error) {
		return e.next, c.cfg.CostPause, nil
	}
	for _, op := range []isa.Op{isa.CLI, isa.STI} {
		sbOps[op] = func(c *CPU, e *sbEntry) (uint64, int, error) {
			on := e.in.Op == isa.STI
			cost := c.cfg.CostCliSti
			if c.mode == Guest {
				// A paravirtualized guest is deprivileged: the
				// instruction traps and the hypervisor emulates it.
				cost = c.cfg.GuestTrapCost
			}
			c.intrOn = on
			return e.next, cost, nil
		}
	}
	sbOps[isa.RDTSC] = func(c *CPU, e *sbEntry) (uint64, int, error) {
		// Like rdtsc_ordered: the cost is charged before the value is
		// read; the epilogue adds nothing more but its interrupt check
		// still runs.
		c.cycles += uint64(c.cfg.CostRdtsc)
		c.regs[e.in.Rd] = c.cycles
		return e.next, 0, nil
	}
	sbOps[isa.OUTB] = func(c *CPU, e *sbEntry) (uint64, int, error) {
		if c.OutB != nil {
			c.OutB(uint8(e.in.Imm), byte(c.regs[e.in.Rs]))
		}
		return e.next, c.cfg.CostIO, nil
	}
	sbOps[isa.INB] = func(c *CPU, e *sbEntry) (uint64, int, error) {
		var v byte
		if c.InB != nil {
			v = c.InB(uint8(e.in.Imm))
		}
		c.regs[e.in.Rd] = uint64(v)
		return e.next, c.cfg.CostIO, nil
	}
}
