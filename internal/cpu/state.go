// CPU state export/import for deterministic machine snapshots.
//
// ExportState captures everything a CPU's future simulated execution
// depends on: architectural state (registers, pc, flags operands, stack
// pointer is a register), the microarchitectural predictors (BTB, RAS)
// whose contents change simulated cycle counts, the
// interrupt-perturbation schedule, the simulated statistics, and —
// crucially — the instruction cache, because stale icache lines are
// architecturally visible in this machine: a CPU keeps executing its
// snapshot of a page until FlushICache, so two machines with identical
// memory but different resident lines can diverge.
//
// A line is exported as its byte snapshot and nothing else. The
// predecoded instructions and superblocks layered on it are host
// accelerators: each one is a pure function of the line bytes and its
// pc (decodecache.go, superblock.go), so an imported line starts empty
// and rebuilds them lazily on first execution, exactly as a freshly
// filled line does. Likewise the interpreter tier a CPU runs
// (superblocks on or off) and its TierStats belong to the CPU, not to
// the state: ImportState keeps both.
//
// Host wiring — the memory reference, the cost model, tracers, fault
// injectors, device callbacks, the tier and its counters, and the
// decode-cache line memo — is deliberately not state: it belongs to
// the constructing harness. state_test.go enumerates every CPU field
// and fails on a field added without classifying it as serialized or
// host wiring.

package cpu

import (
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/mem"
)

// BTBState is one exported branch-target-buffer entry.
type BTBState struct {
	Valid   bool
	Tag     uint64
	Counter uint8
	Target  uint64
}

// ICLineState is one exported instruction-cache line: the page-byte
// snapshot taken at fill time.
type ICLineState struct {
	PN      uint64 // page number
	Version uint64 // page write-version at fill time
	Bytes   []byte // PageSize-long snapshot; read-only (see ExportState)
}

// State is the complete serializable state of one CPU.
type State struct {
	Regs   [isa.NumRegs]uint64
	PC     uint64
	Cycles uint64
	Halted bool
	CmpA   int64
	CmpB   int64

	BTB  []BTBState
	RAS  []uint64
	RASN int

	Mode       uint8
	IntrOn     bool
	IntrPeriod uint64
	IntrCost   uint64
	NextIntr   uint64

	ICache []ICLineState // sorted by PN
	Stats  Stats
}

// ExportState captures this CPU's complete state. Each ICLineState's
// Bytes shares the line's immutable byte snapshot instead of copying
// it, the way mem.ExportPages shares page data: Bytes is read-only —
// writing through it would change the exporting CPU's icache and every
// CPU the state is imported into. Everything else is copied, so
// mutating the rest of the State or the CPU afterwards is safe.
func (c *CPU) ExportState() State {
	s := State{
		Regs:       c.regs,
		PC:         c.pc,
		Cycles:     c.cycles,
		Halted:     c.halted,
		CmpA:       c.cmpA,
		CmpB:       c.cmpB,
		RAS:        append([]uint64(nil), c.ras...),
		RASN:       c.rasN,
		Mode:       uint8(c.mode),
		IntrOn:     c.intrOn,
		IntrPeriod: c.intrPeriod,
		IntrCost:   c.intrCost,
		NextIntr:   c.nextIntr,
		Stats:      c.stats,
	}
	s.BTB = make([]BTBState, len(c.btb))
	for i, e := range c.btb {
		s.BTB[i] = BTBState{Valid: e.valid, Tag: e.tag, Counter: e.counter, Target: e.target}
	}
	s.ICache = make([]ICLineState, 0, len(c.icache))
	for pn, line := range c.icache {
		s.ICache = append(s.ICache, ICLineState{PN: pn, Version: line.version, Bytes: line.bytes})
	}
	sort.Slice(s.ICache, func(i, j int) bool { return s.ICache[i].PN < s.ICache[j].PN })
	return s
}

// ImportState restores a previously exported state onto this CPU. The
// CPU must have been constructed with the same Config the exporting
// CPU used (the predictor geometry is checked; the cost model is the
// caller's contract). The restored lines share each ICLineState's
// Bytes (read-only, as ExportState documents), so one State can be
// imported any number of times without copying. The lines start with
// no derived entries; decodes and superblocks rebuild lazily as the
// CPU executes them. The CPU's tier and TierStats are left untouched.
func (c *CPU) ImportState(s State) error {
	if len(s.BTB) != len(c.btb) {
		return fmt.Errorf("cpu: snapshot BTB has %d entries, this CPU %d (different Config)", len(s.BTB), len(c.btb))
	}
	if len(s.RAS) != len(c.ras) {
		return fmt.Errorf("cpu: snapshot RAS depth %d, this CPU %d (different Config)", len(s.RAS), len(c.ras))
	}
	icache := make(map[uint64]*icLine, len(s.ICache))
	for _, ls := range s.ICache {
		if len(ls.Bytes) != mem.PageSize {
			return fmt.Errorf("cpu: snapshot icache line %#x holds %d bytes, want %d", ls.PN, len(ls.Bytes), mem.PageSize)
		}
		if _, dup := icache[ls.PN]; dup {
			return fmt.Errorf("cpu: snapshot repeats icache line %#x", ls.PN)
		}
		icache[ls.PN] = &icLine{bytes: ls.Bytes, version: ls.Version}
	}
	c.regs = s.Regs
	c.pc = s.PC
	c.cycles = s.Cycles
	c.halted = s.Halted
	c.cmpA, c.cmpB = s.CmpA, s.CmpB
	for i, e := range s.BTB {
		c.btb[i] = btbEntry{valid: e.Valid, tag: e.Tag, counter: e.Counter, target: e.Target}
	}
	copy(c.ras, s.RAS)
	c.rasN = s.RASN
	c.mode = Mode(s.Mode)
	c.intrOn = s.IntrOn
	c.intrPeriod = s.IntrPeriod
	c.intrCost = s.IntrCost
	c.nextIntr = s.NextIntr
	c.icache = icache
	c.lastPN, c.lastLine = 0, nil // memo points at dropped lines
	c.cycleStop = 0
	c.stats = s.Stats
	return nil
}

// RunUntil executes until the cycle counter reaches target, the CPU
// halts, an error occurs, or maxSteps instructions retire. It returns
// the number of instructions executed. Like Run it dispatches through
// Step only while a tracer observes or a fetch fault is armed for this
// thread (stepHooked); otherwise it takes the superblock fast path.
//
// The pause point never perturbs the run: on the fast path
// the superblock chain is interrupted only between block dispatches
// (execBlock is never asked to split a block it would otherwise run
// whole, which would change the host-side BlockHits count), so a run
// paused by RunUntil and then continued retires the same instructions,
// cycles and statistics — simulated and tier alike — as one
// uninterrupted Run. The checkpoint difftests pin the simulated half.
func (c *CPU) RunUntil(target, maxSteps uint64) (uint64, error) {
	var steps uint64
	if !c.stepHooked() {
		c.cycleStop = target
		defer func() { c.cycleStop = 0 }()
		for steps < maxSteps && c.cycles < target {
			if c.halted {
				return steps, nil
			}
			n, err := c.stepFastN(maxSteps - steps)
			steps += n
			if err != nil {
				return steps, err
			}
		}
		return steps, nil
	}
	for steps < maxSteps && c.cycles < target {
		if c.halted {
			return steps, nil
		}
		if err := c.Step(); err != nil {
			return steps, err
		}
		steps++
	}
	return steps, nil
}
