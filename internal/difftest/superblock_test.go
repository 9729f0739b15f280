package difftest

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/kernelsim"
	"repro/internal/muslsim"
)

// The superblock threaded-dispatch layer is, like the decode cache, a
// pure host-side accelerator: chaining straight-line instructions into
// blocks and dispatching them through the per-op function table must
// never change a single simulated cycle, across block boundaries,
// terminators, interrupt-perturbation epilogues and the SMP paths the
// E1/E4 workloads exercise (commits, icache flushes, BRK text pokes).
// These tests run both workloads end to end with superblocks on and
// off and require the bench.Result structs — mean, std, min, max,
// sample and drop counts — to be bit-identical.

// withSuperblocks runs f with the package-wide superblock default
// forced on or off, restoring the previous default afterwards.
func withSuperblocks(t *testing.T, on bool, f func()) {
	t.Helper()
	orig := cpu.SuperblocksDefault()
	cpu.SetSuperblocksDefault(on)
	defer cpu.SetSuperblocksDefault(orig)
	f()
}

func TestSuperblockInvarianceFig1(t *testing.T) {
	opts := kernelsim.MeasureOpts{Samples: 10, Iters: 30, Warmup: 2}
	measure := func(on bool) map[string]bench.Result {
		out := make(map[string]bench.Result)
		withSuperblocks(t, on, func() {
			for _, b := range []kernelsim.Fig1Binding{
				kernelsim.Fig1Static, kernelsim.Fig1Dynamic, kernelsim.Fig1Multiverse,
			} {
				for _, smp := range []bool{false, true} {
					sys, err := kernelsim.BuildFig1(b, smp)
					if err != nil {
						t.Fatalf("BuildFig1(%v, %v): %v", b, smp, err)
					}
					r, err := sys.Measure(opts)
					if err != nil {
						t.Fatalf("Measure(%v, %v): %v", b, smp, err)
					}
					out[b.String()+map[bool]string{false: "/up", true: "/smp"}[smp]] = r
				}
			}
		})
		return out
	}
	on := measure(true)
	off := measure(false)
	for k, r := range on {
		if r != off[k] {
			t.Errorf("%s: results differ with superblocks on/off:\non:  %+v\noff: %+v",
				k, r, off[k])
		}
	}
}

func TestSuperblockInvarianceMusl(t *testing.T) {
	const samples, iters = 8, 20
	measure := func(on bool) map[string]bench.Result {
		out := make(map[string]bench.Result)
		withSuperblocks(t, on, func() {
			for _, build := range []muslsim.Build{muslsim.Plain, muslsim.Multiverse} {
				m, err := muslsim.BuildMusl(build)
				if err != nil {
					t.Fatalf("BuildMusl(%v): %v", build, err)
				}
				if err := m.SetThreads(false); err != nil {
					t.Fatal(err)
				}
				for _, f := range muslsim.Funcs() {
					r, err := m.Measure(f, samples, iters)
					if err != nil {
						t.Fatalf("Measure(%v): %v", f, err)
					}
					out[build.String()+"/"+f.String()] = r
				}
			}
		})
		return out
	}
	on := measure(true)
	off := measure(false)
	for k, r := range on {
		if r != off[k] {
			t.Errorf("%s: results differ with superblocks on/off:\non:  %+v\noff: %+v",
				k, r, off[k])
		}
	}
}

// TestSuperblockArchStatsInvariance pins the architectural statistics
// — instruction, branch, load/store, mispredict, interrupt and trap
// counts — bit-identical with superblocks on and off on the E1
// workload. Host-side accelerator counters (cpu.TierStats)
// legitimately differ between the two dispatch strategies and are not
// part of cpu.Stats.
func TestSuperblockArchStatsInvariance(t *testing.T) {
	stats := func(on bool) (out cpu.Stats) {
		withSuperblocks(t, on, func() {
			sys, err := kernelsim.BuildFig1(kernelsim.Fig1Multiverse, true)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Measure(kernelsim.MeasureOpts{Samples: 5, Iters: 20, Warmup: 1}); err != nil {
				t.Fatal(err)
			}
			out = sys.System().Machine.TotalStats()
		})
		return out
	}
	on := stats(true)
	off := stats(false)
	if on != off {
		t.Errorf("architectural stats differ with superblocks on/off:\non:  %+v\noff: %+v", on, off)
	}
}
