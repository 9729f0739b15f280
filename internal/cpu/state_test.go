package cpu

import (
	"reflect"
	"testing"

	"repro/internal/isa"
)

// TestCPUFieldsClassifiedForSnapshot is the snapshot-completeness
// gate: every field of CPU and icLine must be explicitly classified as
// serialized (captured by ExportState) or host wiring (reconstructed
// by the harness, not state). Adding a field without deciding its
// disposition fails this test — the bug class where new machine state
// silently never reaches a snapshot, so a restored run diverges.
func TestCPUFieldsClassifiedForSnapshot(t *testing.T) {
	serialized := map[string]bool{
		"regs": true, "pc": true, "cycles": true, "halted": true,
		"cmpA": true, "cmpB": true,
		"btb": true, "ras": true, "rasN": true,
		"mode": true, "intrOn": true,
		"intrPeriod": true, "intrCost": true, "nextIntr": true,
		"icache": true, "stats": true,
	}
	hostWiring := map[string]bool{
		"Mem":        true,             // the address space is serialized by mem.ExportPages
		"cfg":        true,             // cost model: the constructing harness's contract
		"hypervisor": true,             // host callback
		"tracer":     true,             // observability hook
		"inject":     true, "id": true, // fault-injection wiring
		"OutB": true, "InB": true, // device callbacks
		"lastPN": true, "lastLine": true, // decode-cache memo, rebuilt lazily
		"cycleStop":   true, // transient RunUntil pause mark, zero at capture
		"superblocks": true, // interpreter tier: the constructor's choice
		"tier":        true, // interpreter-tier counters
	}
	checkFields(t, reflect.TypeOf(CPU{}), serialized, hostWiring)

	lineSerialized := map[string]bool{"bytes": true, "version": true}
	lineHostWiring := map[string]bool{
		// Derived from bytes alone and rebuilt lazily after import.
		"ents": true, "idx": true, "nsb": true,
	}
	checkFields(t, reflect.TypeOf(icLine{}), lineSerialized, lineHostWiring)
}

func checkFields(t *testing.T, typ reflect.Type, serialized, hostWiring map[string]bool) {
	t.Helper()
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if serialized[name] || hostWiring[name] {
			continue
		}
		t.Errorf("%s.%s is not classified for snapshots: extend ExportState/ImportState "+
			"(and the wire format in internal/snapshot) or record it as host wiring here",
			typ.Name(), name)
	}
}

// stateVM builds a CPU mid-flight: warmed predictors, resident icache
// lines with decode-cache and superblock entries, live RAS, interrupt
// perturbation — everything ExportState claims to capture.
func stateVM(t *testing.T) *CPU {
	t.Helper()
	var a isa.Asm
	// A call in a loop keeps the RAS and BTB busy; the loop body is
	// long enough to head a superblock.
	a.Movi(0, 0)
	a.Movi(1, 0)
	loop := a.Len()
	callAt := a.Len()
	a.Call(0) // patched below to target fn
	a.AluI(isa.ADDI, 1, 1)
	a.CmpI(1, 300)
	jccAt := a.Len()
	a.Jcc(isa.LT, int32(loop-(jccAt+6)))
	a.Hlt()
	fn := a.Len()
	a.AluI(isa.ADDI, 0, 3)
	a.Ret()
	code := a.Bytes()
	// Fix the call displacement now that fn's offset is known.
	var fix isa.Asm
	fix.Call(int32(fn - (callAt + 5)))
	copy(code[callAt:], fix.Bytes())

	c := newVM(t, code)
	c.SetInterruptsEnabled(true)
	c.SetInterruptPerturbation(997, 30)
	if _, err := c.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if !c.Halted() {
		t.Fatal("program did not halt")
	}
	if c.Stats().Calls == 0 || len(c.icache) == 0 {
		t.Fatal("warmup did not exercise the caches")
	}
	return c
}

// TestExportImportRoundTrip: importing an exported state onto a fresh
// CPU (same config) reproduces it exactly. The importing CPU keeps its
// own interpreter tier and tier counters.
func TestExportImportRoundTrip(t *testing.T) {
	for _, sb := range []bool{false, true} {
		c := stateVM(t)
		s := c.ExportState()

		fresh := New(c.Mem, c.Config())
		fresh.SetSuperblocks(sb)
		if err := fresh.ImportState(s); err != nil {
			t.Fatalf("superblocks=%v: %v", sb, err)
		}
		again := fresh.ExportState()
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("superblocks=%v: re-export diverged\nfirst:  %+v\nsecond: %+v", sb, s, again)
		}
		if fresh.SuperblocksEnabled() != sb {
			t.Fatalf("superblocks=%v: import changed the tier", sb)
		}
		if got := fresh.TierStats(); got != (TierStats{}) {
			t.Fatalf("superblocks=%v: import changed the tier counters: %+v", sb, got)
		}
	}
}

func TestImportRejectsConfigMismatch(t *testing.T) {
	c := stateVM(t)
	s := c.ExportState()
	cfg := c.Config()
	cfg.BTBSize *= 2
	other := New(c.Mem, cfg)
	if err := other.ImportState(s); err == nil {
		t.Fatal("imported state across a predictor-geometry change")
	}
}

// TestRunUntilPauseInvariance pins the checkpoint property: a run
// paused at arbitrary cycle thresholds and continued retires exactly
// the cycles, registers and statistics of one uninterrupted run —
// with superblocks both off and on (where the pause must land between
// block dispatches, never inside one).
func TestRunUntilPauseInvariance(t *testing.T) {
	for _, sb := range []bool{false, true} {
		var a isa.Asm
		a.Movi(0, 0)
		a.Movi(1, 0)
		loop := a.Len()
		a.Alu(isa.ADD, 0, 1)
		a.AluI(isa.ADDI, 1, 1)
		a.CmpI(1, 500)
		jccAt := a.Len()
		a.Jcc(isa.LT, int32(loop-(jccAt+6)))
		a.Hlt()
		code := a.Bytes()

		straight := newVM(t, code)
		straight.SetSuperblocks(sb)
		run(t, straight)

		paused := newVM(t, code)
		paused.SetSuperblocks(sb)
		// Pause every 137 cycles until past the straight run's total,
		// then run to the halt.
		for target := uint64(137); target < straight.Cycles()+200; target += 137 {
			if _, err := paused.RunUntil(target, 1_000_000); err != nil {
				t.Fatalf("superblocks=%v: %v", sb, err)
			}
			if paused.Halted() {
				break
			}
			if got := paused.Cycles(); got < target && !paused.Halted() {
				t.Fatalf("superblocks=%v: RunUntil(%d) stopped at cycle %d", sb, target, got)
			}
		}
		if !paused.Halted() {
			if _, err := paused.Run(1_000_000); err != nil {
				t.Fatal(err)
			}
		}
		if straight.Cycles() != paused.Cycles() {
			t.Fatalf("superblocks=%v: cycles %d (straight) vs %d (paused)",
				sb, straight.Cycles(), paused.Cycles())
		}
		if straight.Reg(0) != paused.Reg(0) {
			t.Fatalf("superblocks=%v: results diverged", sb)
		}
		if straight.Stats() != paused.Stats() {
			t.Fatalf("superblocks=%v: stats diverged\nstraight: %+v\npaused:   %+v",
				sb, straight.Stats(), paused.Stats())
		}
		if straight.TierStats() != paused.TierStats() {
			t.Fatalf("superblocks=%v: tier stats diverged\nstraight: %+v\npaused:   %+v",
				sb, straight.TierStats(), paused.TierStats())
		}
	}
}
