package difftest

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernelsim"
	"repro/internal/link"
	"repro/internal/muslsim"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// A snapshot holds simulated state only, so the digest of a machine
// instant must not depend on which interpreter tier produced it: E1
// and E4 run to the halt with superblocks on, with superblocks off,
// and single-stepped under a tracer must end on one digest, and a
// snapshot taken on one tier must resume on the other.

// tierWorkload is one guest call over a committed image.
type tierWorkload struct {
	name      string
	img       *link.Image
	configure func(*core.System)
	entry     string
	args      []uint64
}

func tierWorkloads(t *testing.T) []tierWorkload {
	t.Helper()
	fig1, err := kernelsim.BuildFig1(kernelsim.Fig1Multiverse, true)
	if err != nil {
		t.Fatal(err)
	}
	musl, err := muslsim.BuildMusl(muslsim.Multiverse)
	if err != nil {
		t.Fatal(err)
	}
	commit := func(name string, v int64) func(*core.System) {
		return func(sys *core.System) {
			if err := sys.SetSwitch(name, v); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.RT.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return []tierWorkload{
		{"E1", fig1.System().Machine.Image, commit("config_smp", 1), "bench_fig1", []uint64{400}},
		{"E4", musl.System().Machine.Image, commit("threads_minus_1", 0), "bench_fputc", []uint64{300}},
	}
}

// start builds a configured system on the given tier, with the call
// set up but not yet run.
func (w tierWorkload) start(t *testing.T, superblocks bool) *core.System {
	t.Helper()
	var sys *core.System
	withSuperblocks(t, superblocks, func() { sys = snapSystem(t, w.img) })
	w.configure(sys)
	if err := sys.Machine.StartCall(sys.Machine.CPU, w.entry, w.args...); err != nil {
		t.Fatal(err)
	}
	return sys
}

// nopTracer observes nothing; attaching it only forces Step.
type nopTracer struct{}

func (nopTracer) Emit(trace.Kind, uint64, uint64, uint64)             {}
func (nopTracer) EmitName(trace.Kind, uint64, uint64, uint64, string) {}
func (nopTracer) Step(uint64, uint64)                                 {}
func (nopTracer) Call(uint64, uint64)                                 {}
func (nopTracer) Ret(uint64, uint64)                                  {}

func TestSnapshotDigestTierIndependent(t *testing.T) {
	for _, w := range tierWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			blocks := finish(t, w.start(t, true))
			noBlocks := finish(t, w.start(t, false))
			traced := w.start(t, true)
			for _, c := range traced.Machine.CPUs() {
				c.SetTracer(nopTracer{})
			}
			stepped := finish(t, traced)
			if noBlocks != blocks {
				t.Errorf("superblocks off diverged from on:\non:  %+v\noff: %+v", blocks, noBlocks)
			}
			if stepped != blocks {
				t.Errorf("traced Step run diverged from superblocks:\nblocks:  %+v\nstepped: %+v", blocks, stepped)
			}
		})
	}
}

// TestSnapshotRestoresAcrossTiers: a snapshot captured mid-call with
// superblocks off resumes on a superblocks-on machine and finishes on
// the uninterrupted run's digest.
func TestSnapshotRestoresAcrossTiers(t *testing.T) {
	for _, w := range tierWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			want := finish(t, w.start(t, true))

			off := w.start(t, false)
			mid := want.cycles / 2
			if _, err := off.Machine.CPU.RunUntil(mid, off.Machine.MaxSteps); err != nil {
				t.Fatal(err)
			}
			if off.Machine.CPU.Halted() {
				t.Fatalf("run finished before the checkpoint cycle %d", mid)
			}
			snap, err := snapshot.Capture(off.Machine, off.RT)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := snapshot.Decode(snap.Encode())
			if err != nil {
				t.Fatal(err)
			}

			var on *core.System
			withSuperblocks(t, true, func() { on = snapSystem(t, w.img) })
			if err := snapshot.Apply(restored, on.Machine, on.RT); err != nil {
				t.Fatal(err)
			}
			got := finish(t, on)
			if got != want {
				t.Fatalf("cross-tier restore diverged:\nuninterrupted %+v\nrestored      %+v", want, got)
			}
			if on.Machine.TotalTierStats().BlockInsts == 0 {
				t.Error("restored machine ran no superblocks")
			}
		})
	}
}
