package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/grepsim"
	"repro/internal/kernelsim"
	"repro/internal/metrics"
	"repro/internal/muslsim"
	"repro/internal/pysim"
)

// The paper workload runs experiments E1–E10 the way cmd/mvbench runs
// them at its default sample settings: the same builds, switch
// settings, Measure calls and labels, so the simulated-cycle results
// must equal mvbench's (oracle_test.go cross-checks the pinned table
// against `mvbench -json`). The difference is the split into phases:
// a pass first builds and configures every system (set-up), then runs
// every measurement (the timed phase).

// paperExperiments is mvbench's experiment order; measure_s.<name>
// reports the host time of each.
var paperExperiments = []string{"fig1", "fig4-spinlock", "fig4-pvops", "fig5", "grep",
	"cpython", "overheads", "ablation-btb", "ablation-mechanism", "alternative"}

//go:embed oracle/paper.json
var paperOracleJSON []byte

// paperOracle is the pinned outcome of one pass. Cycles are the
// simulated-cycle mean and std of every label in record order; Counts
// holds grep's match counts and E7's site counts; MeasureInsts and
// MeasureCycles are the simulated instructions and cycles all
// measurements of a pass retire.
type paperOracle struct {
	Samples       int               `json:"samples"`
	Iters         uint64            `json:"iters"`
	Warmup        int               `json:"warmup"`
	Cycles        []cycleEntry      `json:"cycles"`
	Counts        map[string]uint64 `json:"counts"`
	MeasureInsts  uint64            `json:"measure_insts"`
	MeasureCycles uint64            `json:"measure_cycles"`
}

type cycleEntry struct {
	Experiment string  `json:"experiment"`
	Label      string  `json:"label"`
	Mean       float64 `json:"mean"`
	Std        float64 `json:"std"`
}

func loadPaperOracle() (*paperOracle, error) {
	var o paperOracle
	if err := json.Unmarshal(paperOracleJSON, &o); err != nil {
		return nil, fmt.Errorf("paper oracle: %w", err)
	}
	return &o, nil
}

// suite is one pass's set of built systems. Each step runs the
// measurements of one experiment against systems built in set-up.
type suite struct {
	opts     kernelsim.MeasureOpts
	tr       *tracer
	buildDur time.Duration // Build* calls
	setDur   time.Duration // Set* calls, including the commits they make
	steps    []paperStep
}

type paperStep struct {
	experiment string
	run        func(p *passResult) error
}

// passResult collects what one pass's measurements produced.
type passResult struct {
	cycles []cycleEntry
	counts map[string]uint64
}

func (p *passResult) record(exp, label string, r bench.Result) {
	p.cycles = append(p.cycles, cycleEntry{exp, label, r.Mean, r.Std})
}

func (s *suite) build(name string, fn func() error) error {
	t := time.Now()
	err := s.tr.do(name, fn)
	s.buildDur += time.Since(t)
	return err
}

func (s *suite) set(name string, fn func() error) error {
	t := time.Now()
	err := s.tr.do(name, fn)
	s.setDur += time.Since(t)
	return err
}

func (s *suite) step(exp string, run func(p *passResult) error) {
	s.steps = append(s.steps, paperStep{exp, run})
}

// measure wraps one Measure-style call in a span.
func (s *suite) measure(name string, fn func() (bench.Result, error)) (bench.Result, error) {
	var r bench.Result
	err := s.tr.do(name, func() (err error) {
		r, err = fn()
		return err
	})
	return r, err
}

// buildSuite builds and configures every system of E1–E10.
func buildSuite(o *paperOracle, tr *tracer) (*suite, error) {
	s := &suite{opts: kernelsim.MeasureOpts{Samples: o.Samples, Iters: o.Iters, Warmup: o.Warmup}, tr: tr}
	for _, add := range []func(*suite) error{
		(*suite).fig1, (*suite).fig4Spinlock, (*suite).fig4PVOps, (*suite).fig5, (*suite).grep,
		(*suite).cpython, (*suite).overheads, (*suite).ablationBTB, (*suite).ablationMechanism, (*suite).alternative,
	} {
		if err := add(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *suite) fig1() error {
	type sys struct {
		label string
		f     *kernelsim.Fig1System
	}
	var all []sys
	for _, b := range []kernelsim.Fig1Binding{kernelsim.Fig1Static, kernelsim.Fig1Dynamic, kernelsim.Fig1Multiverse} {
		for _, smp := range []bool{false, true} {
			var f *kernelsim.Fig1System
			if err := s.build("kernelsim.BuildFig1", func() (err error) {
				f, err = kernelsim.BuildFig1(b, smp)
				return err
			}); err != nil {
				return err
			}
			all = append(all, sys{fmt.Sprintf("%s/smp=%v", b, smp), f})
		}
	}
	s.step("fig1", func(p *passResult) error {
		for _, x := range all {
			r, err := s.measure("Fig1System.Measure", func() (bench.Result, error) { return x.f.Measure(s.opts) })
			if err != nil {
				return err
			}
			p.record("fig1", x.label, r)
		}
		return nil
	})
	return nil
}

func (s *suite) fig4Spinlock() error {
	type sys struct {
		label string
		k     *kernelsim.SpinSystem
	}
	var all []sys
	for _, k := range []kernelsim.SpinKernel{kernelsim.SpinMainline, kernelsim.SpinIf,
		kernelsim.SpinMultiverse, kernelsim.SpinStaticUP} {
		for _, smp := range []bool{false, true} {
			var sp *kernelsim.SpinSystem
			if err := s.build("kernelsim.BuildSpin", func() (err error) {
				sp, err = kernelsim.BuildSpin(k)
				return err
			}); err != nil {
				return err
			}
			// mvbench prints "n/a" and records nothing when a kernel
			// cannot enter the mode (the static UP kernel in SMP).
			if s.set("SpinSystem.SetSMP", func() error { return sp.SetSMP(smp) }) != nil {
				continue
			}
			all = append(all, sys{fmt.Sprintf("%s/smp=%v", k, smp), sp})
		}
	}
	s.step("fig4-spinlock", func(p *passResult) error {
		for _, x := range all {
			r, err := s.measure("SpinSystem.Measure", func() (bench.Result, error) { return x.k.Measure(s.opts) })
			if err != nil {
				return err
			}
			p.record("fig4-spinlock", x.label, r)
		}
		return nil
	})
	return nil
}

func (s *suite) fig4PVOps() error {
	type sys struct {
		label string
		pv    *kernelsim.PVSystem
	}
	var all []sys
	for _, k := range []kernelsim.PVKernel{kernelsim.PVCurrent, kernelsim.PVMultiverse, kernelsim.PVDisabled} {
		for _, env := range []kernelsim.PVEnv{kernelsim.EnvNative, kernelsim.EnvXen} {
			var pv *kernelsim.PVSystem
			// A kernel that cannot run in an environment is "n/a" in mvbench.
			if s.build("kernelsim.BuildPV", func() (err error) {
				pv, err = kernelsim.BuildPV(k, env)
				return err
			}) != nil {
				continue
			}
			all = append(all, sys{fmt.Sprintf("%v/%v", k, env), pv})
		}
	}
	s.step("fig4-pvops", func(p *passResult) error {
		for _, x := range all {
			r, err := s.measure("PVSystem.Measure", func() (bench.Result, error) { return x.pv.Measure(s.opts) })
			if err != nil {
				return err
			}
			p.record("fig4-pvops", x.label, r)
		}
		return nil
	})
	return nil
}

func (s *suite) fig5() error {
	type sys struct {
		mode string
		m    *muslsim.Musl
	}
	var all []sys
	for _, multi := range []bool{false, true} {
		mode := "single-threaded"
		if multi {
			mode = "multi-threaded"
		}
		for _, b := range []muslsim.Build{muslsim.Plain, muslsim.Multiverse} {
			var m *muslsim.Musl
			if err := s.build("muslsim.BuildMusl", func() (err error) {
				m, err = muslsim.BuildMusl(b)
				return err
			}); err != nil {
				return err
			}
			if err := s.set("Musl.SetThreads", func() error { return m.SetThreads(multi) }); err != nil {
				return err
			}
			all = append(all, sys{mode, m})
		}
	}
	s.step("fig5", func(p *passResult) error {
		for _, x := range all {
			for _, f := range muslsim.Funcs() {
				r, err := s.measure("Musl.Measure", func() (bench.Result, error) {
					return x.m.Measure(f, s.opts.Samples, s.opts.Iters)
				})
				if err != nil {
					return err
				}
				p.record("fig5", fmt.Sprintf("%s/%v/%v", x.mode, f, x.m.Build), r)
			}
		}
		return nil
	})
	return nil
}

func (s *suite) grep() error {
	var all []*grepsim.Grep
	for _, b := range []grepsim.Build{grepsim.Plain, grepsim.Multiverse} {
		var g *grepsim.Grep
		if err := s.build("grepsim.BuildGrep", func() (err error) {
			g, err = grepsim.BuildGrep(b)
			return err
		}); err != nil {
			return err
		}
		if err := s.set("Grep.SetMode", func() error { return g.SetMode(false) }); err != nil {
			return err
		}
		all = append(all, g)
	}
	s.step("grep", func(p *passResult) error {
		for _, g := range all {
			var n uint64
			if err := s.tr.do("Grep.Matches", func() (err error) {
				n, err = g.Matches()
				return err
			}); err != nil {
				return err
			}
			p.counts["grep/"+g.Build.String()+"/matches"] = n
			r, err := s.measure("Grep.Measure", func() (bench.Result, error) { return g.Measure(s.opts.Samples / 10) })
			if err != nil {
				return err
			}
			p.record("grep", g.Build.String(), r)
		}
		return nil
	})
	return nil
}

func (s *suite) cpython() error {
	var all []*pysim.Python
	for _, b := range []pysim.Build{pysim.Plain, pysim.Multiverse} {
		var py *pysim.Python
		if err := s.build("pysim.BuildPython", func() (err error) {
			py, err = pysim.BuildPython(b)
			return err
		}); err != nil {
			return err
		}
		if err := s.set("Python.SetGCEnabled", func() error { return py.SetGCEnabled(false) }); err != nil {
			return err
		}
		all = append(all, py)
	}
	s.step("cpython", func(p *passResult) error {
		for _, py := range all {
			r, err := s.measure("Python.Measure", func() (bench.Result, error) { return py.Measure(s.opts.Samples, s.opts.Iters) })
			if err != nil {
				return err
			}
			p.record("cpython", py.Build.String(), r)
		}
		return nil
	})
	return nil
}

// overheads is E7 as mvbench runs it: one SMP and one UP commit over
// the 1161-site kernel. Its oracle is the site counts, not host time.
func (s *suite) overheads() error {
	var sys *core.System
	if err := s.build("kernelsim.BuildManyCallSites", func() (err error) {
		sys, err = kernelsim.BuildManyCallSites(kernelsim.PaperCallSites)
		return err
	}); err != nil {
		return err
	}
	s.step("overheads", func(p *passResult) error {
		for _, smp := range []bool{true, false} {
			var rep kernelsim.PatchReport
			if err := s.tr.do("kernelsim.TimeCommit", func() (err error) {
				rep, err = kernelsim.TimeCommit(sys, smp)
				return err
			}); err != nil {
				return err
			}
			p.counts["overheads/call_sites"] = uint64(rep.CallSites)
			p.counts[fmt.Sprintf("overheads/sites_touched/smp=%v", smp)] = uint64(rep.SitesTouched)
		}
		return nil
	})
	return nil
}

func (s *suite) ablationBTB() error {
	type sys struct {
		b kernelsim.Fig1Binding
		f *kernelsim.Fig1System
	}
	var all []sys
	for _, b := range []kernelsim.Fig1Binding{kernelsim.Fig1Dynamic, kernelsim.Fig1Multiverse} {
		var f *kernelsim.Fig1System
		if err := s.build("kernelsim.BuildFig1", func() (err error) {
			f, err = kernelsim.BuildFig1(b, false)
			return err
		}); err != nil {
			return err
		}
		all = append(all, sys{b, f})
	}
	s.step("ablation-btb", func(p *passResult) error {
		for _, x := range all {
			warm, err := s.measure("Fig1System.Measure", func() (bench.Result, error) { return x.f.Measure(s.opts) })
			if err != nil {
				return err
			}
			cold, err := s.measure("Fig1System.MeasureColdBTB", func() (bench.Result, error) { return x.f.MeasureColdBTB(s.opts) })
			if err != nil {
				return err
			}
			p.record("ablation-btb", x.b.String()+"/warm", warm)
			p.record("ablation-btb", x.b.String()+"/cold", cold)
		}
		return nil
	})
	return nil
}

func (s *suite) ablationMechanism() error {
	configs := []struct {
		label     string
		configure func(rt *core.Runtime)
	}{
		{"full", func(rt *core.Runtime) {}},
		{"no-inlining", func(rt *core.Runtime) { rt.DisableInlining = true }},
		{"prologue-only", func(rt *core.Runtime) { rt.PrologueOnly = true }},
	}
	var all []*kernelsim.SpinSystem
	for _, c := range configs {
		var sp *kernelsim.SpinSystem
		if err := s.build("kernelsim.BuildSpin", func() (err error) {
			sp, err = kernelsim.BuildSpin(kernelsim.SpinMultiverse)
			return err
		}); err != nil {
			return err
		}
		c.configure(sp.Runtime())
		if err := s.set("SpinSystem.SetSMP", func() error { return sp.SetSMP(false) }); err != nil {
			return err
		}
		all = append(all, sp)
	}
	s.step("ablation-mechanism", func(p *passResult) error {
		for i, sp := range all {
			r, err := s.measure("SpinSystem.Measure", func() (bench.Result, error) { return sp.Measure(s.opts) })
			if err != nil {
				return err
			}
			p.record("ablation-mechanism", configs[i].label, r)
		}
		return nil
	})
	return nil
}

func (s *suite) alternative() error {
	type sys struct {
		label string
		a     *kernelsim.AltSystem
	}
	var all []sys
	for _, k := range []kernelsim.AltKernel{kernelsim.AltMacro, kernelsim.AltMultiverse} {
		for _, feature := range []bool{false, true} {
			var a *kernelsim.AltSystem
			if err := s.build("kernelsim.BuildAlt", func() (err error) {
				a, err = kernelsim.BuildAlt(k, feature)
				return err
			}); err != nil {
				return err
			}
			all = append(all, sys{fmt.Sprintf("%v/feature=%v", k, feature), a})
		}
	}
	s.step("alternative", func(p *passResult) error {
		for _, x := range all {
			r, err := s.measure("AltSystem.Measure", func() (bench.Result, error) { return x.a.Measure(s.opts) })
			if err != nil {
				return err
			}
			p.record("alternative", x.label, r)
		}
		return nil
	})
	return nil
}

// checkPaper lists every difference between a pass and the oracle.
// Simulated cycles are deterministic, so equality is exact.
func checkPaper(got *passResult, insts, cycles uint64, want *paperOracle) []string {
	var bad []string
	if len(got.cycles) != len(want.Cycles) {
		bad = append(bad, fmt.Sprintf("%d measurements, oracle has %d", len(got.cycles), len(want.Cycles)))
	}
	for i := 0; i < len(got.cycles) && i < len(want.Cycles); i++ {
		if g, w := got.cycles[i], want.Cycles[i]; g != w {
			bad = append(bad, fmt.Sprintf("%s %s: got mean %v std %v, oracle %s %s mean %v std %v",
				g.Experiment, g.Label, g.Mean, g.Std, w.Experiment, w.Label, w.Mean, w.Std))
		}
	}
	if len(got.counts) != len(want.Counts) {
		bad = append(bad, fmt.Sprintf("%d counts, oracle has %d", len(got.counts), len(want.Counts)))
	}
	for k, w := range want.Counts {
		if g, ok := got.counts[k]; !ok || g != w {
			bad = append(bad, fmt.Sprintf("%s: got %d, oracle %d", k, g, w))
		}
	}
	if insts != want.MeasureInsts || cycles != want.MeasureCycles {
		bad = append(bad, fmt.Sprintf("measurements retired %d instructions in %d cycles, oracle %d in %d",
			insts, cycles, want.MeasureInsts, want.MeasureCycles))
	}
	return bad
}

// paperOps counts the operations a pass attempts: every pinned
// measurement and count.
func paperOps(want *paperOracle) int { return len(want.Cycles) + len(want.Counts) }

// paperSetupsPerPass is how many times a pass builds the suite. One
// build takes ~50 ms, too short to time once on a shared host, so
// set-up is the median of these; the last suite built is measured.
const paperSetupsPerPass = 4

// pass is one suite built and every measurement run once (runPass).
// Every system a suite builds registers into one fresh metrics
// registry (the way mvbench aggregates its run), whose counters give
// the simulated work; a fresh registry per suite lets the systems of
// earlier ones be collected.
type pass struct {
	suite     *suite
	setupS    []float64
	res       *passResult
	measureS  map[string]float64
	measureD  time.Duration
	insts     uint64
	cycles    uint64
	reg       *metrics.Registry
	regBefore map[string]uint64
}

func runPass(want *paperOracle, tr *tracer) (*pass, error) {
	defer core.SetDefaultMetricsRegistry(nil)
	var s *suite
	var reg *metrics.Registry
	var setups []float64
	for i := 0; i < paperSetupsPerPass; i++ {
		reg = metrics.New()
		core.SetDefaultMetricsRegistry(reg)
		err := tr.inPhase("build", func() (err error) {
			s, err = buildSuite(want, tr)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (s.buildDur + s.setDur).Seconds())
	}
	p := &pass{suite: s, setupS: setups, res: &passResult{counts: make(map[string]uint64)},
		measureS: make(map[string]float64), reg: reg, regBefore: cpuCounters(reg)}
	for _, st := range s.steps {
		i0, c0 := reg.CounterTotal("mv_instructions_total"), reg.CounterTotal("mv_cycles_total")
		t := time.Now()
		err := tr.inPhase("measure", func() error {
			return tr.do("measure."+st.experiment, func() error { return st.run(p.res) })
		})
		d := time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", st.experiment, err)
		}
		p.measureD += d
		p.measureS[st.experiment] += d.Seconds()
		p.insts += reg.CounterTotal("mv_instructions_total") - i0
		p.cycles += reg.CounterTotal("mv_cycles_total") - c0
	}
	return p, nil
}

// cpuCounters reads the interpreter counters the per-layer cpu.*
// metrics are computed from.
func cpuCounters(reg *metrics.Registry) map[string]uint64 {
	out := make(map[string]uint64)
	for _, n := range []string{"mv_instructions_total", "mv_superblock_insts_total", "mv_decode_hits_total",
		"mv_decode_misses_total", "mv_superblock_builds_total", "mv_superblock_invalidated_total"} {
		out[n] = reg.CounterTotal(n)
	}
	return out
}

func runPaper(r *runner) {
	o := r.out
	want, err := loadPaperOracle()
	if err != nil {
		o.fail("%v", err)
		return
	}
	check := func(p *pass) {
		o.attempted += paperOps(want)
		bad := checkPaper(p.res, p.insts, p.cycles, want)
		o.problems = append(o.problems, bad...)
		o.failed += len(bad)
	}
	// One untimed pass first: it warms the heap and code paths and
	// its results are checked like every other pass's.
	warm, err := runPass(want, nil)
	if err != nil {
		o.fail("warm-up pass: %v", err)
		return
	}
	check(warm)

	var ms runtime.MemStats
	for r.more() {
		r.tr.nextRun()
		base := liveHeap(&ms)
		p, err := runPass(want, r.tr)
		if err != nil {
			o.fail("pass: %v", err)
			o.attempted++
			o.failed++
			return
		}
		check(p)
		live := liveHeap(&ms)
		runtime.KeepAlive(p)

		o.setupS = append(o.setupS, p.setupS...)
		o.opMS = append(o.opMS, ms1(p.measureD))
		o.rate = append(o.rate, float64(p.insts)/p.measureD.Seconds())
		o.heapMB = append(o.heapMB, heapMB(live, base))
		for _, e := range paperExperiments {
			o.sample("measure_s."+e, p.measureS[e])
		}
		o.sample("paper.build_s", p.suite.buildDur.Seconds())
		o.sample("paper.reconfigure_s", p.suite.setDur.Seconds())
		c := cpuCounters(p.reg)
		d := func(n string) float64 { return float64(c[n] - p.regBefore[n]) }
		o.sample("cpu.insts", float64(p.insts))
		o.sample("cpu.sim_cycles", float64(p.cycles))
		o.sample("cpu.superblock_insts_ratio", ratio(d("mv_superblock_insts_total"), d("mv_instructions_total")))
		o.sample("cpu.decode_hit_ratio", ratio(d("mv_decode_hits_total"), d("mv_decode_hits_total")+d("mv_decode_misses_total")))
		o.sample("cpu.superblock_builds", d("mv_superblock_builds_total"))
		o.sample("cpu.superblock_invalidated", d("mv_superblock_invalidated_total"))
	}
	o.report("sim_insts_per_s", o.rate, "1/s")
	o.report("measure_pass_ms", o.opMS, "ms")
	o.report("heap_mb", o.heapMB, "MB")
	o.report("setup_s", o.setupS, "s")
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func paperInputs(o *paperOracle) map[string]any {
	return map[string]any{
		"experiments": paperExperiments,
		"samples":     o.Samples, "iters": o.Iters, "warmup": o.Warmup,
		"grep_samples": o.Samples / 10,
		"seed":         "none: the suite is deterministic",
	}
}
