package difftest

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/cpu"
	"repro/internal/faultinject"
	"repro/internal/kernelsim"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/muslsim"
)

// The fault injector is a host-side instrument: attaching a plan whose
// points never fire must not change a single simulated cycle. These
// tests run E1 (spinlock kernel) and E4 (mini-musl) with no injector
// and with an inert (empty) plan attached and require the
// bench.Result structs to be bit-identical. Together with the unit
// tests this pins the acceptance property that un-instrumented runs
// are unperturbed: the hooks are nil-checked on the hot paths and the
// retry/backoff machinery only advances cycles after a fault fires.

func TestFaultInjectorInvarianceSpin(t *testing.T) {
	opts := kernelsim.MeasureOpts{Samples: 10, Iters: 30, Warmup: 2}
	measure := func(attach bool) map[string]bench.Result {
		out := make(map[string]bench.Result)
		for _, smp := range []bool{false, true} {
			s, err := kernelsim.BuildSpin(kernelsim.SpinMultiverse)
			if err != nil {
				t.Fatalf("BuildSpin: %v", err)
			}
			if attach {
				faultinject.Exact().Attach(s.System().Machine)
			}
			if err := s.SetSMP(smp); err != nil {
				t.Fatalf("SetSMP(%v): %v", smp, err)
			}
			r, err := s.Measure(opts)
			if err != nil {
				t.Fatalf("Measure(smp=%v): %v", smp, err)
			}
			out[map[bool]string{false: "up", true: "smp"}[smp]] = r
		}
		return out
	}
	bare := measure(false)
	inert := measure(true)
	for k, r := range bare {
		if r != inert[k] {
			t.Errorf("%s: results differ with inert injector attached:\nbare:  %+v\ninert: %+v",
				k, r, inert[k])
		}
	}
}

func TestFaultInjectorInvarianceMusl(t *testing.T) {
	measure := func(attach bool) map[muslsim.Func]bench.Result {
		out := make(map[muslsim.Func]bench.Result)
		m, err := muslsim.BuildMusl(muslsim.Multiverse)
		if err != nil {
			t.Fatalf("BuildMusl: %v", err)
		}
		if attach {
			faultinject.Exact().Attach(m.System().Machine)
		}
		if err := m.SetThreads(false); err != nil {
			t.Fatalf("SetThreads: %v", err)
		}
		for _, f := range muslsim.Funcs() {
			r, err := m.Measure(f, 6, 40)
			if err != nil {
				t.Fatalf("Measure(%v): %v", f, err)
			}
			out[f] = r
		}
		return out
	}
	bare := measure(false)
	inert := measure(true)
	for f, r := range bare {
		if r != inert[f] {
			t.Errorf("%v: results differ with inert injector attached:\nbare:  %+v\ninert: %+v",
				f, r, inert[f])
		}
	}
}

// An exhausted plan (every point already fired) must be as invisible
// as an empty one: the firing bookkeeping lives outside the cycle
// model.
func TestExhaustedPlanIsInert(t *testing.T) {
	opts := kernelsim.MeasureOpts{Samples: 6, Iters: 20, Warmup: 1}

	s, err := kernelsim.BuildSpin(kernelsim.SpinMultiverse)
	if err != nil {
		t.Fatalf("BuildSpin: %v", err)
	}
	if err := s.SetSMP(true); err != nil {
		t.Fatalf("SetSMP(true): %v", err)
	}
	if err := s.SetSMP(false); err != nil {
		t.Fatalf("SetSMP(false): %v", err)
	}
	base, err := s.Measure(opts)
	if err != nil {
		t.Fatalf("baseline Measure: %v", err)
	}

	s2, err := kernelsim.BuildSpin(kernelsim.SpinMultiverse)
	if err != nil {
		t.Fatalf("BuildSpin: %v", err)
	}
	plan := faultinject.Exact(faultinject.Point{Kind: faultinject.KindProtect, Op: 0, Transient: true})
	plan.Attach(s2.System().Machine)
	// The transient fault fires during the first commit's first protect
	// flip and is retried transparently; the commit still succeeds and
	// the plan is spent.
	if err := s2.SetSMP(true); err != nil {
		t.Fatalf("commit with armed transient protect fault: %v", err)
	}
	if plan.Remaining() != 0 {
		t.Fatal("transient protect fault never fired")
	}
	if err := s2.SetSMP(false); err != nil {
		t.Fatalf("re-commit after exhausting the plan: %v", err)
	}
	got, err := s2.Measure(opts)
	if err != nil {
		t.Fatalf("Measure with exhausted plan: %v", err)
	}
	if got != base {
		t.Errorf("results differ with exhausted plan attached:\nbare:      %+v\nexhausted: %+v", base, got)
	}
}

// With a plan attached, a CPU runs superblocks whenever no fetch fault
// is armed for it and single-steps through Step while one is. The
// tests below pin that the choice of tier is invisible: E1 and E4 run
// under
//
//   - a plan of protect and drop-flush points only (superblocks);
//   - the same plan plus a fetch point at cycle MaxUint64, which never
//     fires and so keeps the CPU on Step throughout;
//   - the same plan plus one real fetch fault at cycle T, with and
//     without the never-firing point (Step until the fault, then
//     superblocks; or Step throughout).
//
// Every run must end with the same cycles, registers, memory, console
// and statistics — only the Block* and Decode* tier counters may
// differ — and the runs with the real fault must see it at the same
// (pc, cycles).

// faultHit is where an injected fetch fault stopped the CPU.
type faultHit struct{ pc, cycles uint64 }

// guestCall is one guest function invocation, run to its halt.
type guestCall struct {
	fn   string
	args []uint64
}

// injectedWorkload is E1 or E4 reduced to what the tier comparison
// needs: a freshly built machine, the commit each round starts with,
// and the calls each round makes.
type injectedWorkload struct {
	name  string
	build func() (*machine.Machine, func(on bool) error, error)
	calls []guestCall
}

// injectedRounds is how many commit-then-call rounds a run makes.
const injectedRounds = 4

var injectedWorkloads = []injectedWorkload{
	{
		name: "E1",
		build: func() (*machine.Machine, func(bool) error, error) {
			s, err := kernelsim.BuildSpin(kernelsim.SpinMultiverse)
			if err != nil {
				return nil, nil, err
			}
			return s.System().Machine, s.SetSMP, nil
		},
		calls: []guestCall{
			{"bench_spin", []uint64{30}}, {"bench_baseline", []uint64{30}},
			{"bench_spin", []uint64{30}}, {"bench_baseline", []uint64{30}},
		},
	},
	{
		name: "E4",
		build: func() (*machine.Machine, func(bool) error, error) {
			m, err := muslsim.BuildMusl(muslsim.Multiverse)
			if err != nil {
				return nil, nil, err
			}
			return m.System().Machine, m.SetThreads, nil
		},
		calls: []guestCall{
			{"bench_random", []uint64{20}}, {"bench_malloc", []uint64{20, 0}},
			{"bench_malloc", []uint64{20, 1}}, {"bench_fputc", []uint64{20}},
			{"bench_baseline", []uint64{20}},
		},
	},
}

// injectedOutcome is the simulated result of one injected run.
type injectedOutcome struct {
	setupCycles uint64 // CPU cycles once the first commit is done
	state       cpu.State
	stats       cpu.Stats // with the tier counters (Block*, Decode*) zeroed
	blockInsts  uint64
	pages       []mem.PageState
	memStats    mem.Stats
	console     string
	fired       faultinject.Stats
	hits        []faultHit
}

// runInjected drives w under plan. Each round commits (alternating
// the switch, so flushes, refills and block invalidations land between
// calls on both tiers) and then runs the calls, resuming the CPU after
// every injected fetch fault the way a supervisor would.
func runInjected(t *testing.T, w injectedWorkload, plan *faultinject.Plan) injectedOutcome {
	t.Helper()
	m, commit, err := w.build()
	if err != nil {
		t.Fatalf("%s: build: %v", w.name, err)
	}
	plan.Attach(m)
	c := m.CPU
	var out injectedOutcome
	for round := 0; round < injectedRounds; round++ {
		if err := commit(round%2 == 0); err != nil {
			t.Fatalf("%s: commit round %d: %v", w.name, round, err)
		}
		if round == 0 {
			out.setupCycles = c.Cycles()
		}
		for _, gc := range w.calls {
			if err := m.StartCall(c, gc.fn, gc.args...); err != nil {
				t.Fatalf("%s: StartCall %s: %v", w.name, gc.fn, err)
			}
			for !c.Halted() {
				if _, err := c.Run(m.MaxSteps); err != nil {
					if !chaos.IsInjectedFetchFault(err) {
						t.Fatalf("%s: %s: %v", w.name, gc.fn, err)
					}
					out.hits = append(out.hits, faultHit{c.PC(), c.Cycles()})
				}
			}
		}
	}
	out.state = c.ExportState()
	out.stats = out.state.Stats
	out.blockInsts = out.stats.BlockInsts
	out.stats.BlockBuilds, out.stats.BlockHits, out.stats.BlockInsts, out.stats.BlockInvalidates = 0, 0, 0, 0
	out.stats.DecodeHits, out.stats.DecodeMisses = 0, 0
	out.pages = m.Mem.ExportPages()
	out.memStats = m.Mem.Stats
	out.console = string(m.Console())
	out.fired = plan.Stats
	return out
}

// runtimePoints arms only the patching runtime's fault kinds: a
// transient protect failure in the first commit and a dropped
// shootdown in a later one.
func runtimePoints() []faultinject.Point {
	return []faultinject.Point{
		{Kind: faultinject.KindProtect, Op: 0, Transient: true},
		{Kind: faultinject.KindDropFlush, Op: 2, CPU: 0, Transient: true},
	}
}

// neverFires is a fetch point no run reaches: it keeps its CPU on Step.
var neverFires = faultinject.Point{Kind: faultinject.KindFetchFault, CPU: 0, Cycle: math.MaxUint64, Transient: true}

func planOf(extra ...faultinject.Point) *faultinject.Plan {
	return faultinject.Exact(append(runtimePoints(), extra...)...)
}

func TestInjectedSuperblocksMatchStep(t *testing.T) {
	for _, w := range injectedWorkloads {
		t.Run(w.name, func(t *testing.T) {
			blocks := runInjected(t, w, planOf())
			stepped := runInjected(t, w, planOf(neverFires))
			if blocks.blockInsts == 0 {
				t.Error("protect/drop-flush plan did not run superblocks")
			}
			if stepped.blockInsts != 0 {
				t.Errorf("armed never-firing fetch point ran %d block instructions", stepped.blockInsts)
			}
			if blocks.fired.Protect == 0 || blocks.fired.DropFlush == 0 {
				t.Errorf("runtime faults did not fire: %+v", blocks.fired)
			}

			// One real fetch fault in the middle of the calls.
			at := blocks.setupCycles + (blocks.state.Cycles-blocks.setupCycles)/2
			fault := faultinject.Point{Kind: faultinject.KindFetchFault, CPU: 0, Cycle: at, Transient: true}
			faulted := runInjected(t, w, planOf(fault))
			faultedStepped := runInjected(t, w, planOf(fault, neverFires))
			if faulted.blockInsts == 0 {
				t.Error("CPU stayed on Step after its only fetch fault fired")
			}
			if faultedStepped.blockInsts != 0 {
				t.Errorf("armed never-firing fetch point ran %d block instructions", faultedStepped.blockInsts)
			}
			if len(faulted.hits) != 1 || faulted.hits[0].cycles < at {
				t.Fatalf("fetch fault at cycle %d: hits %+v", at, faulted.hits)
			}

			runs := []struct {
				name string
				out  injectedOutcome
			}{
				{"protect+drop-flush", blocks},
				{"+never-firing fetch", stepped},
				{"+fetch fault", faulted},
				{"+fetch fault+never-firing fetch", faultedStepped},
			}
			for _, r := range runs[1:] {
				compareInjected(t, r.name, blocks, r.out)
			}
			if !reflect.DeepEqual(faulted.hits, faultedStepped.hits) {
				t.Errorf("fetch fault landed differently: superblocks %+v, Step %+v", faulted.hits, faultedStepped.hits)
			}
		})
	}
}

// compareInjected requires got to match want in everything simulated.
// Fired-fault counts are compared for the runtime kinds only: the
// fetch-fault count is what distinguishes the plans.
func compareInjected(t *testing.T, name string, want, got injectedOutcome) {
	t.Helper()
	ws, gs := want.state, got.state
	if ws.Cycles != gs.Cycles || ws.PC != gs.PC || ws.Regs != gs.Regs {
		t.Errorf("%s: architectural state differs: cycles %d vs %d, pc %#x vs %#x",
			name, ws.Cycles, gs.Cycles, ws.PC, gs.PC)
	}
	if want.stats != got.stats {
		t.Errorf("%s: stats differ:\nwant: %+v\ngot:  %+v", name, want.stats, got.stats)
	}
	if !reflect.DeepEqual(want.pages, got.pages) {
		t.Errorf("%s: memory differs", name)
	}
	if want.memStats != got.memStats {
		t.Errorf("%s: memory stats differ: %+v vs %+v", name, want.memStats, got.memStats)
	}
	if want.console != got.console {
		t.Errorf("%s: console differs", name)
	}
	if want.fired.Protect != got.fired.Protect || want.fired.DropFlush != got.fired.DropFlush {
		t.Errorf("%s: runtime faults differ: %+v vs %+v", name, want.fired, got.fired)
	}
}
