// Package cpu implements the m64 execution engine together with a
// deterministic microarchitectural cost model.
//
// The paper's entire argument is microarchitectural: a dynamic
// configuration check costs a load, a compare and a conditional branch
// on every invocation, and the branch costs 15–20 cycles more whenever
// the branch target buffer is cold or wrong. The model therefore
// tracks exactly the features the paper reasons about:
//
//   - per-opcode base costs,
//   - a direct-mapped BTB with 2-bit saturating counters for
//     conditional branches,
//   - indirect-call target prediction through the same BTB,
//   - a return-address stack,
//   - expensive locked operations (XCHG),
//   - privileged instructions that trap when executed in a
//     paravirtualized guest, plus cheap explicit hypercalls,
//   - an instruction cache that keeps executing stale bytes until it
//     is explicitly flushed (forgetting the flush after binary
//     patching is a real bug the tests provoke).
//
// A predecoded-instruction cache (decodecache.go) is layered on top of
// each icache line so the steady-state Step loop dispatches on cached
// isa.Inst structs instead of re-decoding raw bytes. It is a pure
// host-side accelerator derived only from the line's page number and
// byte snapshot, so it never changes simulated cycle counts, and CPUs
// holding the same line share it through a Code store (code.go).
//
// Cycle counts are deterministic: the same program always reports the
// same number of cycles.
package cpu

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Mode distinguishes bare-metal execution from running as a
// paravirtualized guest.
type Mode uint8

// Execution modes.
const (
	Native Mode = iota // privileged instructions execute directly
	Guest              // privileged instructions trap to the hypervisor
)

// Hypervisor handles HCALL instructions and privileged-instruction
// traps of a Guest-mode CPU.
type Hypervisor interface {
	// Hypercall is invoked for HCALL n. It may inspect and modify the
	// CPU (e.g. its virtual interrupt flag).
	Hypercall(c *CPU, n uint8) error
}

// Injector is the CPU-side fault-injection hook (see
// internal/faultinject, which implements it together with the
// mem-side hooks). A nil injector disables injection entirely.
// Run and RunUntil keep the superblock fast path (stepFastN) while no
// fetch fault is armed for this thread, so an injector whose plan
// targets only the patching runtime (protection flips, dropped
// flushes) costs the interpreter one FetchFaultArmed call per Run.
// Implementations must be deterministic.
type Injector interface {
	// FetchFault is consulted once per Step before fetch; a non-nil
	// error models a spurious instruction-fetch fault. The PC does not
	// advance, so re-stepping retries the same instruction.
	FetchFault(cpu int, pc, cycles uint64) error
	// FetchFaultArmed reports whether a FetchFault for this hardware
	// thread may still fire. While it does, Run and RunUntil dispatch
	// every instruction through Step so the fault lands on its exact
	// instruction; once it reports false they run superblocks.
	FetchFaultArmed(cpu int) bool
	// DropFlush reports whether this CPU should silently lose the
	// icache invalidation for [addr, addr+n) — a dropped SMP shootdown
	// IPI. The CPU keeps executing its stale snapshot until the next
	// flush of the range.
	DropFlush(cpu int, addr, n uint64) bool
}

// Config holds the cycle cost model. All costs are in cycles.
type Config struct {
	CostALU   int // simple ALU op, MOV, MOVI, LEA, SPADD
	CostMul   int
	CostDiv   int
	CostLoad  int // L1 load-to-use
	CostStore int
	CostPush  int
	CostPop   int
	CostNop   int

	CostJmp           int // unconditional direct jump
	CostBranch        int // correctly predicted conditional branch
	MispredictPenalty int // added on any misprediction (cf. 15–20 cycles on Skylake)
	CostCall          int
	CostRet           int
	CostCallR         int // indirect call base cost (before prediction)

	CostXchg  int // locked atomic exchange
	CostPause int
	CostCmp   int

	CostCliSti    int // CLI/STI executed natively
	GuestTrapCost int // CLI/STI executed in a guest: trap-and-emulate
	CostHcall     int // explicit hypercall
	CostRdtsc     int
	CostIO        int // OUTB/INB device access

	BTBSize  int // number of direct-mapped BTB entries (power of two)
	RASDepth int // return-address stack depth

	// Tracer, when non-nil, observes execution and variability events
	// (see internal/trace). Tracing is strictly passive: cycle counts
	// are bit-identical with any tracer attached or none, and a nil
	// tracer costs one pointer check per hook. SetTracer rebinds it
	// after construction.
	Tracer trace.Tracer
}

// DefaultConfig returns the calibrated cost model used by the paper
// reproduction benchmarks.
func DefaultConfig() Config {
	return Config{
		CostALU:           1,
		CostMul:           3,
		CostDiv:           20,
		CostLoad:          4,
		CostStore:         1,
		CostPush:          1,
		CostPop:           1,
		CostNop:           0, // NOPs are eliminated in rename on modern cores
		CostJmp:           1,
		CostBranch:        1,
		MispredictPenalty: 16,
		CostCall:          2,
		CostRet:           2,
		CostCallR:         4,
		CostXchg:          18,
		CostPause:         1,
		CostCmp:           1,
		CostCliSti:        3,
		GuestTrapCost:     250,
		CostHcall:         5,
		CostRdtsc:         24,
		CostIO:            40,
		BTBSize:           512,
		RASDepth:          16,
	}
}

// btbEntry keeps its two uint64s first so it packs into 24 bytes.
type btbEntry struct {
	tag     uint64
	target  uint64 // predicted indirect target
	valid   bool
	counter uint8 // 2-bit saturating; >= 2 predicts taken
}

// Stats accumulates the simulated execution statistics: counts of
// architectural events, identical whichever interpreter tier ran the
// code, and part of every snapshot. The fields are plain uint64s
// incremented in the interpreter loop; the metrics registry
// (internal/metrics via core.AttachMetrics) reads them through
// closures at export time, so observability never adds work here.
type Stats struct {
	Instructions uint64
	Branches     uint64
	Mispredicts  uint64
	Loads        uint64
	Stores       uint64
	Calls        uint64
	ICacheFills  uint64
	Interrupts   uint64
	Traps        uint64 // BRK breakpoint traps taken (text-poke windows)
}

// Add returns the field-wise sum of s and o — how per-CPU stats
// aggregate across an SMP machine.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Instructions: s.Instructions + o.Instructions,
		Branches:     s.Branches + o.Branches,
		Mispredicts:  s.Mispredicts + o.Mispredicts,
		Loads:        s.Loads + o.Loads,
		Stores:       s.Stores + o.Stores,
		Calls:        s.Calls + o.Calls,
		ICacheFills:  s.ICacheFills + o.ICacheFills,
		Interrupts:   s.Interrupts + o.Interrupts,
		Traps:        s.Traps + o.Traps,
	}
}

// TierStats counts the work of the host-side interpreter tiers (the
// decode cache and superblocks). They depend on which tier ran and on
// what the caches held, never on simulated state, so they are host
// wiring: no snapshot carries them and ImportState leaves them alone.
type TierStats struct {
	DecodeHits   uint64 // instructions dispatched from the decode cache
	DecodeMisses uint64 // instructions fetched and decoded from the icache bytes

	BlockBuilds      uint64 // superblocks chained from icache-line snapshots
	BlockHits        uint64 // superblock dispatches (one per block entry/re-entry)
	BlockInsts       uint64 // instructions dispatched through superblocks
	BlockInvalidates uint64 // superblocks dropped by FlushICache
}

// Add returns the field-wise sum of s and o.
func (s TierStats) Add(o TierStats) TierStats {
	return TierStats{
		DecodeHits:       s.DecodeHits + o.DecodeHits,
		DecodeMisses:     s.DecodeMisses + o.DecodeMisses,
		BlockBuilds:      s.BlockBuilds + o.BlockBuilds,
		BlockHits:        s.BlockHits + o.BlockHits,
		BlockInsts:       s.BlockInsts + o.BlockInsts,
		BlockInvalidates: s.BlockInvalidates + o.BlockInvalidates,
	}
}

// CPU is a single m64 hardware thread.
type CPU struct {
	Mem *mem.Memory

	regs   [isa.NumRegs]uint64
	pc     uint64
	cycles uint64
	halted bool

	cmpA, cmpB int64 // operands of the last CMP/CMPI

	cfg  Config
	btb  []btbEntry
	ras  []uint64
	rasN int

	icache      map[uint64]icLine // page number -> cached line
	code        *Code             // where lines are interned; nil until the first fill
	superblocks bool              // chain straight-line runs for Run's fast path
	lastPN      uint64            // page number memo for the decode-cache fast path
	lastLine    *lineCode         // line memo; nil = invalid, cleared by FlushICache

	mode       Mode
	intrOn     bool
	hypervisor Hypervisor
	tracer     trace.Tracer

	inject Injector // nil = no fault injection
	id     int      // hardware-thread index the injector keys faults on

	intrPeriod uint64 // perturbation period in cycles; 0 = off
	intrCost   uint64
	nextIntr   uint64

	// cycleStop, when non-zero, makes stepFastN stop chaining
	// superblocks once the cycle counter reaches it — the pause
	// mechanism RunUntil uses to park the CPU at a block-chain boundary
	// without ever splitting a block. A split would perturb only host
	// counters (BlockHits), but keeping blocks whole lets a paused run's
	// TierStats match an uninterrupted run's too. Zero outside RunUntil.
	cycleStop uint64

	// OutB receives device writes; nil discards them.
	OutB func(port uint8, b byte)
	// InB supplies device reads; nil reads zero.
	InB func(port uint8) byte

	stats Stats
	tier  TierStats
}

// icLine is one CPU's icache line: the shared decoded line it was
// filled with (code.go) and what only this CPU knows about the fill.
type icLine struct {
	version uint64    // page version at fill time; ICacheStale compares it
	code    *lineCode // page number, byte snapshot and derived entries
}

// New returns a CPU executing from m with the given cost model.
func New(m *mem.Memory, cfg Config) *CPU {
	if cfg.BTBSize == 0 || cfg.BTBSize&(cfg.BTBSize-1) != 0 {
		panic(fmt.Sprintf("cpu: BTBSize %d is not a power of two", cfg.BTBSize))
	}
	return &CPU{
		Mem:         m,
		cfg:         cfg,
		btb:         make([]btbEntry, cfg.BTBSize),
		ras:         make([]uint64, cfg.RASDepth),
		icache:      make(map[uint64]icLine),
		superblocks: superblocksDefault,
		tracer:      cfg.Tracer,
	}
}

// SetTracer installs (or, with nil, removes) the event/profiling
// tracer. Safe at any point; tracing is passive and never changes
// simulated cycles.
func (c *CPU) SetTracer(t trace.Tracer) { c.tracer = t }

// Tracer returns the installed tracer, if any.
func (c *CPU) Tracer() trace.Tracer { return c.tracer }

// SetInjector installs (or, with nil, removes) the fault injector and
// this CPU's hardware-thread index, which the injector uses to bind
// faults to one SMP thread. With a nil injector, or one with no fetch
// fault armed for this thread, Run executes exactly as in an
// injection-free build.
func (c *CPU) SetInjector(inj Injector, id int) { c.inject = inj; c.id = id }

// Injector returns the installed fault injector, if any.
func (c *CPU) Injector() Injector { return c.inject }

// Reg returns the value of register r.
func (c *CPU) Reg(r isa.Reg) uint64 { return c.regs[r] }

// SetReg sets register r to v.
func (c *CPU) SetReg(r isa.Reg, v uint64) { c.regs[r] = v }

// PC returns the program counter.
func (c *CPU) PC() uint64 { return c.pc }

// SetPC sets the program counter.
func (c *CPU) SetPC(pc uint64) { c.pc = pc; c.halted = false }

// Cycles returns the cycle counter (also readable by RDTSC).
func (c *CPU) Cycles() uint64 { return c.cycles }

// AddCycles advances the cycle counter by n; the benchmark harness uses
// it to model measurement overhead.
func (c *CPU) AddCycles(n uint64) { c.cycles += n }

// Halted reports whether the CPU has executed HLT.
func (c *CPU) Halted() bool { return c.halted }

// Stats returns a copy of the simulated execution statistics.
func (c *CPU) Stats() Stats { return c.stats }

// TierStats returns a copy of the interpreter-tier statistics.
func (c *CPU) TierStats() TierStats { return c.tier }

// Mode returns the execution mode.
func (c *CPU) Mode() Mode { return c.mode }

// SetMode switches between Native and Guest execution.
func (c *CPU) SetMode(m Mode) { c.mode = m }

// SetHypervisor installs the handler for hypercalls and guest traps.
func (c *CPU) SetHypervisor(h Hypervisor) { c.hypervisor = h }

// InterruptsEnabled reports the virtual interrupt flag.
func (c *CPU) InterruptsEnabled() bool { return c.intrOn }

// SetInterruptsEnabled sets the virtual interrupt flag (used by
// hypervisor implementations of sti/cli hypercalls).
func (c *CPU) SetInterruptsEnabled(on bool) { c.intrOn = on }

// SetInterruptPerturbation makes an asynchronous interrupt steal cost
// cycles roughly every period cycles while interrupts are enabled —
// the perturbation the paper's measurement methodology attributes its
// rare outliers to (§6.1, §7.5). Deterministic: the same program sees
// the same interrupt schedule. period 0 disables.
func (c *CPU) SetInterruptPerturbation(period, cost uint64) {
	c.intrPeriod = period
	c.intrCost = cost
	c.nextIntr = c.cycles + period
}

// Config returns the cost model.
func (c *CPU) Config() Config { return c.cfg }

// FlushICache invalidates the instruction cache for [addr, addr+n).
// Binary patching must call this (via the runtime library) or the CPU
// keeps executing the stale pre-patch bytes.
func (c *CPU) FlushICache(addr, n uint64) {
	if n == 0 {
		return
	}
	if c.inject != nil && c.inject.DropFlush(c.id, addr, n) {
		// The shootdown IPI for this CPU was lost: its snapshot lines
		// survive and it keeps executing the pre-patch bytes. The
		// commit-side coherence verification (core) detects the stale
		// lines via ICacheStale and re-issues the flush.
		if c.tracer != nil {
			c.tracer.Emit(trace.KindFaultInjected, addr, n, 2)
		}
		return
	}
	c.Mem.Stats.Flushes++
	if c.tracer != nil {
		c.tracer.Emit(trace.KindFlushICache, addr, n, 0)
	}
	first := addr >> mem.PageShift
	last := (addr + n - 1) >> mem.PageShift
	for pn := first; pn <= last; pn++ {
		if line, ok := c.icache[pn]; ok {
			c.tier.BlockInvalidates += uint64(line.code.nsb)
			delete(c.icache, pn)
		}
	}
	// The decode-cache fast path memoizes the last line; a flush may
	// have dropped it.
	c.lastLine = nil
}

// ICacheStale reports whether this CPU holds an instruction-cache line
// overlapping [addr, addr+n) whose snapshot predates the newest write
// to its page — i.e. whether a patch has not yet reached this CPU's
// frontend. Each line records the page's write-version at fill time;
// comparing it against the current version is exactly the check a
// shootdown-acknowledge protocol performs. The crash-consistency layer
// (core) uses it after commits and rollbacks to verify that no SMP
// thread lost its invalidation to an injected dropped-IPI fault.
func (c *CPU) ICacheStale(addr, n uint64) bool {
	if n == 0 {
		return false
	}
	first := addr >> mem.PageShift
	last := (addr + n - 1) >> mem.PageShift
	// Wide queries (a whole-address-space coherence sweep) walk the
	// cached lines instead of every page of the range.
	if last-first >= uint64(len(c.icache)) {
		for pn, line := range c.icache {
			if pn < first || pn > last {
				continue
			}
			if ver, mapped := c.Mem.PageVersion(pn << mem.PageShift); mapped && ver != line.version {
				return true
			}
		}
		return false
	}
	for pn := first; pn <= last; pn++ {
		line, ok := c.icache[pn]
		if !ok {
			continue // next fetch refills from memory: coherent
		}
		if ver, mapped := c.Mem.PageVersion(pn << mem.PageShift); mapped && ver != line.version {
			return true
		}
	}
	return false
}

// FlushPredictor clears the BTB and the return-address stack. The
// BTB-cold ablation (experiment E8) uses it to model branch-predictor
// pressure from surrounding kernel code.
func (c *CPU) FlushPredictor() {
	for i := range c.btb {
		c.btb[i] = btbEntry{}
	}
	c.rasN = 0
}

// icFetch copies n instruction bytes at addr into buf from the
// instruction cache, filling lines as needed. It checks the Exec
// permission at fill time, like a hardware ifetch.
func (c *CPU) icFetch(addr uint64, buf []byte) (int, error) {
	got := 0
	for got < len(buf) {
		pn := addr >> mem.PageShift
		line, ok := c.icache[pn]
		if !ok {
			page, ver, err := c.Mem.FetchPage(addr)
			if err != nil {
				if got > 0 {
					return got, nil // partial window; decoder decides
				}
				return 0, err
			}
			line = icLine{version: ver, code: c.Code().intern(pn, page, false)}
			c.icache[pn] = line
			c.stats.ICacheFills++
		}
		off := int(addr & (mem.PageSize - 1))
		n := copy(buf[got:], line.code.bytes[off:])
		got += n
		addr += uint64(n)
	}
	return got, nil
}

// maxInstLen is the longest instruction we fetch eagerly (MOVI).
// NOPN is handled specially since only its first two bytes matter.
const maxInstLen = 10

type execError struct {
	pc  uint64
	err error
}

func (e *execError) Error() string { return fmt.Sprintf("cpu: at pc=%#x: %v", e.pc, e.err) }
func (e *execError) Unwrap() error { return e.err }

// Step executes one instruction.
func (c *CPU) Step() error {
	if c.halted {
		return fmt.Errorf("cpu: step on halted CPU")
	}
	pc := c.pc
	if c.inject != nil {
		if err := c.inject.FetchFault(c.id, pc, c.cycles); err != nil {
			// A spurious fetch fault: nothing retired, the PC holds, so
			// the caller may service it and re-step the instruction.
			if c.tracer != nil {
				c.tracer.Emit(trace.KindFaultInjected, pc, 0, 3)
			}
			return &execError{pc, err}
		}
	}
	if in := c.cachedInst(pc); in != nil {
		c.tier.DecodeHits++
		if c.tracer != nil {
			c.tracer.Step(pc, c.cycles)
		}
		return c.exec(*in)
	}
	return c.stepDecode(pc)
}

// stepDecode is the decode-cache-miss path: fetch through the
// instruction cache, decode, cache, execute.
func (c *CPU) stepDecode(pc uint64) error {
	in, err := c.fetchDecode(pc)
	if err != nil {
		return err
	}
	c.tier.DecodeMisses++
	c.cacheInst(pc, in)
	if c.tracer != nil {
		c.tracer.Step(pc, c.cycles)
	}
	return c.exec(in)
}

// fetchDecode fetches the instruction at pc through the instruction
// cache and decodes it.
func (c *CPU) fetchDecode(pc uint64) (isa.Inst, error) {
	var window [maxInstLen]byte
	n, err := c.icFetch(pc, window[:])
	if err != nil {
		return isa.Inst{}, &execError{pc, err}
	}
	in, err := decodeWindow(window[:n])
	if err != nil {
		return isa.Inst{}, &execError{pc, err}
	}
	return in, nil
}

// decodeWindow decodes the instruction at the start of w. NOPN is
// special: only its length byte matters, so the padding need not lie
// in w (it may even cross into the next page).
func decodeWindow(w []byte) (isa.Inst, error) {
	if len(w) >= 2 && isa.Op(w[0]) == isa.NOPN {
		length := int(w[1])
		if length < 2 {
			return isa.Inst{}, fmt.Errorf("NOPN length %d", length)
		}
		return isa.Inst{Op: isa.NOPN, Len: length}, nil
	}
	return isa.Decode(w)
}

// InstAt returns the instruction this CPU executes at pc: the cached
// decode, or the decode of its icache snapshot — so patched bytes show
// only after a flush, exactly as Step runs them. A tracer may call it
// from its Step hook to disassemble the instruction being retired;
// Step has already fetched pc's lines then, so the call changes no
// statistics.
func (c *CPU) InstAt(pc uint64) (isa.Inst, error) {
	if in := c.cachedInst(pc); in != nil {
		return *in, nil
	}
	return c.fetchDecode(pc)
}

func (c *CPU) exec(in isa.Inst) error {
	pc := c.pc
	if in.Op == isa.BRK {
		// A breakpoint byte planted by the text-poke protocol. Nothing
		// retires: the PC holds (the error path skips the epilogue), so
		// the caller can spin until the poke finishes and re-step the
		// then-rewritten instruction.
		c.stats.Traps++
		if c.tracer != nil {
			c.tracer.Emit(trace.KindTrap, pc, 0, 0)
		}
		return &execError{pc, &TrapFault{PC: pc}}
	}
	next := pc + uint64(in.Len)
	cost := 0
	c.stats.Instructions++

	// Every opcode must fall through to the common epilogue below: an
	// early return would skip the interrupt-perturbation check, making
	// a due interrupt silently unserviceable across that instruction
	// (a real bug the RDTSC regression test provokes).
	switch in.Op {
	case isa.HLT:
		c.halted = true

	case isa.NOP, isa.NOPN:
		cost = c.cfg.CostNop

	case isa.MOVI:
		c.regs[in.Rd] = uint64(in.Imm)
		cost = c.cfg.CostALU

	case isa.MOV:
		c.regs[in.Rd] = c.regs[in.Rs]
		cost = c.cfg.CostALU

	case isa.LEA:
		c.regs[in.Rd] = c.regs[in.Rs] + uint64(in.Imm)
		cost = c.cfg.CostALU

	case isa.LD, isa.LDS:
		addr := c.regs[in.Rs] + uint64(in.Imm)
		v, err := c.Mem.ReadUint(addr, in.Size)
		if err != nil {
			return &execError{pc, err}
		}
		if in.Op == isa.LDS {
			shift := 64 - 8*in.Size
			v = uint64(int64(v<<shift) >> shift)
		}
		c.regs[in.Rd] = v
		c.stats.Loads++
		cost = c.cfg.CostLoad

	case isa.ST:
		addr := c.regs[in.Rd] + uint64(in.Imm)
		if err := c.Mem.WriteUint(addr, in.Size, c.regs[in.Rs]); err != nil {
			return &execError{pc, err}
		}
		c.stats.Stores++
		cost = c.cfg.CostStore

	case isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.MOD, isa.AND, isa.OR, isa.XOR,
		isa.SHL, isa.SHR, isa.SAR, isa.NEG, isa.NOT, isa.UDIV, isa.UMOD:
		var err error
		cost, err = c.alu(in.Op, in.Rd, c.regs[in.Rs])
		if err != nil {
			return &execError{pc, err}
		}

	case isa.ADDI, isa.SUBI, isa.MULI, isa.DIVI, isa.MODI, isa.ANDI, isa.ORI,
		isa.XORI, isa.SHLI, isa.SHRI, isa.SARI:
		var err error
		cost, err = c.alu(immToReg(in.Op), in.Rd, uint64(in.Imm))
		if err != nil {
			return &execError{pc, err}
		}

	case isa.CMP:
		c.cmpA, c.cmpB = int64(c.regs[in.Rd]), int64(c.regs[in.Rs])
		cost = c.cfg.CostCmp

	case isa.CMPI:
		c.cmpA, c.cmpB = int64(c.regs[in.Rd]), in.Imm
		cost = c.cfg.CostCmp

	case isa.SETCC:
		if in.Cond.Eval(c.cmpA, c.cmpB) {
			c.regs[in.Rd] = 1
		} else {
			c.regs[in.Rd] = 0
		}
		cost = c.cfg.CostALU

	case isa.JCC:
		taken := in.Cond.Eval(c.cmpA, c.cmpB)
		cost = c.cfg.CostBranch
		if !c.predictCond(pc, taken) {
			cost += c.cfg.MispredictPenalty
			c.stats.Mispredicts++
			if c.tracer != nil {
				var t uint64
				if taken {
					t = 1
				}
				c.tracer.Emit(trace.KindMispredict, pc, t, 0)
			}
		}
		c.stats.Branches++
		if taken {
			next += uint64(in.Imm)
		}

	case isa.JMP:
		next += uint64(in.Imm)
		cost = c.cfg.CostJmp

	case isa.CALL:
		c.rasPush(next)
		if err := c.push(next); err != nil {
			return &execError{pc, err}
		}
		next += uint64(in.Imm)
		cost = c.cfg.CostCall
		c.stats.Calls++
		if c.tracer != nil {
			c.tracer.Call(pc, next)
		}

	case isa.CLLM:
		ptr, err := c.Mem.ReadUint(uint64(in.Imm), 8)
		if err != nil {
			return &execError{pc, err}
		}
		if ptr == 0 {
			return &execError{pc, fmt.Errorf("call through null function pointer at %#x", uint64(in.Imm))}
		}
		c.stats.Loads++
		cost = c.cfg.CostLoad + c.cfg.CostCallR
		if !c.predictIndirect(pc, ptr) {
			cost += c.cfg.MispredictPenalty
			c.stats.Mispredicts++
			if c.tracer != nil {
				c.tracer.Emit(trace.KindMispredict, pc, ptr, 1)
			}
		}
		c.stats.Branches++
		c.rasPush(next)
		if err := c.push(next); err != nil {
			return &execError{pc, err}
		}
		next = ptr
		c.stats.Calls++
		if c.tracer != nil {
			c.tracer.Call(pc, ptr)
		}

	case isa.CLLR:
		target := c.regs[in.Rs]
		cost = c.cfg.CostCallR
		if !c.predictIndirect(pc, target) {
			cost += c.cfg.MispredictPenalty
			c.stats.Mispredicts++
			if c.tracer != nil {
				c.tracer.Emit(trace.KindMispredict, pc, target, 1)
			}
		}
		c.stats.Branches++
		c.rasPush(next)
		if err := c.push(next); err != nil {
			return &execError{pc, err}
		}
		next = target
		c.stats.Calls++
		if c.tracer != nil {
			c.tracer.Call(pc, target)
		}

	case isa.RET:
		ret, err := c.pop()
		if err != nil {
			return &execError{pc, err}
		}
		cost = c.cfg.CostRet
		if !c.rasPop(ret) {
			cost += c.cfg.MispredictPenalty
			c.stats.Mispredicts++
			if c.tracer != nil {
				c.tracer.Emit(trace.KindMispredict, pc, ret, 2)
			}
		}
		next = ret
		if c.tracer != nil {
			c.tracer.Ret(pc, ret)
		}

	case isa.PUSH:
		if err := c.push(c.regs[in.Rd]); err != nil {
			return &execError{pc, err}
		}
		cost = c.cfg.CostPush

	case isa.POP:
		v, err := c.pop()
		if err != nil {
			return &execError{pc, err}
		}
		c.regs[in.Rd] = v
		cost = c.cfg.CostPop

	case isa.SPAD:
		c.regs[isa.SP] += uint64(in.Imm)
		cost = c.cfg.CostALU

	case isa.XCHG:
		addr := c.regs[in.Rd]
		old, err := c.Mem.ReadUint(addr, 8)
		if err != nil {
			return &execError{pc, err}
		}
		if err := c.Mem.WriteUint(addr, 8, c.regs[in.Rs]); err != nil {
			return &execError{pc, err}
		}
		c.regs[in.Rs] = old
		c.stats.Loads++
		c.stats.Stores++
		cost = c.cfg.CostXchg

	case isa.PAUSE:
		cost = c.cfg.CostPause

	case isa.CLI, isa.STI:
		on := in.Op == isa.STI
		if c.mode == Guest {
			// A paravirtualized guest is deprivileged: the
			// instruction traps and the hypervisor emulates it.
			cost = c.cfg.GuestTrapCost
			c.intrOn = on
		} else {
			cost = c.cfg.CostCliSti
			c.intrOn = on
		}

	case isa.HCALL:
		if c.hypervisor == nil {
			return &execError{pc, fmt.Errorf("HCALL %d with no hypervisor", in.Imm)}
		}
		if err := c.hypervisor.Hypercall(c, uint8(in.Imm)); err != nil {
			return &execError{pc, err}
		}
		cost = c.cfg.CostHcall

	case isa.RDTSC:
		// Like rdtsc_ordered: the cost is charged before the value is
		// read so that back-to-back reads measure the in-between work
		// plus one timer read. cost stays 0 so the epilogue adds
		// nothing more, but the interrupt check still runs.
		c.cycles += uint64(c.cfg.CostRdtsc)
		c.regs[in.Rd] = c.cycles

	case isa.OUTB:
		if c.OutB != nil {
			c.OutB(uint8(in.Imm), byte(c.regs[in.Rs]))
		}
		cost = c.cfg.CostIO

	case isa.INB:
		var v byte
		if c.InB != nil {
			v = c.InB(uint8(in.Imm))
		}
		c.regs[in.Rd] = uint64(v)
		cost = c.cfg.CostIO

	default:
		return &execError{pc, fmt.Errorf("unimplemented opcode %v", in.Op)}
	}

	c.cycles += uint64(cost)
	c.pc = next
	if c.intrPeriod > 0 && c.intrOn && c.cycles >= c.nextIntr {
		// Service an asynchronous interrupt: time passes, state is
		// preserved (the handler saves and restores everything).
		c.cycles += c.intrCost
		c.stats.Interrupts++
		c.nextIntr = c.cycles + c.intrPeriod
		if c.tracer != nil {
			c.tracer.Emit(trace.KindInterrupt, pc, c.intrCost, 0)
		}
	}
	return nil
}

func immToReg(op isa.Op) isa.Op {
	// ADDI..SARI mirror ADD..SAR with a fixed offset.
	return op - isa.ADDI + isa.ADD
}

func (c *CPU) alu(op isa.Op, rd isa.Reg, src uint64) (int, error) {
	a := c.regs[rd]
	cost := c.cfg.CostALU
	switch op {
	case isa.ADD:
		a += src
	case isa.SUB:
		a -= src
	case isa.MUL:
		a *= src
		cost = c.cfg.CostMul
	case isa.DIV:
		if src == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		a = uint64(int64(a) / int64(src))
		cost = c.cfg.CostDiv
	case isa.MOD:
		if src == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		a = uint64(int64(a) % int64(src))
		cost = c.cfg.CostDiv
	case isa.UDIV:
		if src == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		a /= src
		cost = c.cfg.CostDiv
	case isa.UMOD:
		if src == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		a %= src
		cost = c.cfg.CostDiv
	case isa.AND:
		a &= src
	case isa.OR:
		a |= src
	case isa.XOR:
		a ^= src
	case isa.SHL:
		a <<= src & 63
	case isa.SHR:
		a >>= src & 63
	case isa.SAR:
		a = uint64(int64(a) >> (src & 63))
	case isa.NEG:
		a = -a
	case isa.NOT:
		a = ^a
	default:
		return 0, fmt.Errorf("not an ALU op: %v", op)
	}
	c.regs[rd] = a
	return cost, nil
}

func (c *CPU) push(v uint64) error {
	c.regs[isa.SP] -= 8
	return c.Mem.WriteUint(c.regs[isa.SP], 8, v)
}

func (c *CPU) pop() (uint64, error) {
	v, err := c.Mem.ReadUint(c.regs[isa.SP], 8)
	if err != nil {
		return 0, err
	}
	c.regs[isa.SP] += 8
	return v, nil
}

// predictCond consults and updates the conditional predictor; it
// reports whether the prediction was correct.
func (c *CPU) predictCond(pc uint64, taken bool) bool {
	e := &c.btb[pc&uint64(c.cfg.BTBSize-1)]
	predictTaken := e.valid && e.tag == pc && e.counter >= 2
	correct := predictTaken == taken
	if !e.valid || e.tag != pc {
		*e = btbEntry{valid: true, tag: pc, counter: 1} // weakly not-taken
	}
	if taken {
		if e.counter < 3 {
			e.counter++
		}
	} else if e.counter > 0 {
		e.counter--
	}
	return correct
}

// predictIndirect consults and updates the indirect-target predictor;
// it reports whether the prediction was correct.
func (c *CPU) predictIndirect(pc, target uint64) bool {
	e := &c.btb[pc&uint64(c.cfg.BTBSize-1)]
	correct := e.valid && e.tag == pc && e.target == target
	if !e.valid || e.tag != pc {
		// Re-initialize like predictCond: the saturating counter of an
		// aliased entry was trained by an unrelated pc and must not be
		// carried into the new entry.
		*e = btbEntry{valid: true, tag: pc, counter: 1, target: target}
		return correct
	}
	e.target = target
	return correct
}

func (c *CPU) rasPush(ret uint64) {
	if len(c.ras) == 0 {
		return
	}
	c.ras[c.rasN%len(c.ras)] = ret
	c.rasN++
}

func (c *CPU) rasPop(actual uint64) bool {
	if len(c.ras) == 0 || c.rasN == 0 {
		return false
	}
	c.rasN--
	return c.ras[c.rasN%len(c.ras)] == actual
}

// stepHooked reports whether Run and RunUntil must dispatch every
// instruction through Step: a tracer observes each one, or an armed
// fetch fault must land on its exact instruction.
// Hooks are bound before a run and a fetch fault can only be disarmed
// by firing, which ends the run with its error, so the answer holds
// for a whole Run.
func (c *CPU) stepHooked() bool {
	return c.tracer != nil ||
		(c.inject != nil && c.inject.FetchFaultArmed(c.id))
}

// Run executes until HLT, an error, or maxSteps instructions. It
// returns the number of instructions executed.
func (c *CPU) Run(maxSteps uint64) (uint64, error) {
	var steps uint64
	if !c.stepHooked() {
		for steps < maxSteps {
			if c.halted {
				return steps, nil
			}
			// stepFastN retires up to the remaining budget through a
			// superblock (or exactly one instruction off the block path),
			// so steps stays exact: a block never overshoots maxSteps and
			// a faulting instruction is not counted, same as Step.
			n, err := c.stepFastN(maxSteps - steps)
			steps += n
			if err != nil {
				return steps, err
			}
		}
	} else {
		for steps < maxSteps {
			if c.halted {
				return steps, nil
			}
			if err := c.Step(); err != nil {
				return steps, err
			}
			steps++
		}
	}
	if !c.halted {
		return steps, fmt.Errorf("cpu: exceeded %d steps without HLT (pc=%#x)", maxSteps, c.pc)
	}
	return steps, nil
}
