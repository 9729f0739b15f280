package main

import (
	"errors"
	"testing"

	"repro/internal/fleet"
)

// Every correctness check must reject a corrupted result. Each test
// starts from a result the check accepts and breaks one thing.

func TestCheckPaperRejectsCycleOffByOne(t *testing.T) {
	want, err := loadPaperOracle()
	if err != nil {
		t.Fatal(err)
	}
	got := &passResult{cycles: append([]cycleEntry(nil), want.Cycles...), counts: make(map[string]uint64)}
	for k, v := range want.Counts {
		got.counts[k] = v
	}
	if bad := checkPaper(got, want.MeasureInsts, want.MeasureCycles, want); len(bad) != 0 {
		t.Fatalf("the oracle itself fails its check: %v", bad)
	}
	got.cycles[3].Mean++
	if bad := checkPaper(got, want.MeasureInsts, want.MeasureCycles, want); len(bad) != 1 {
		t.Errorf("a cycle mean off by one gave %v, want one problem", bad)
	}
	got.cycles[3].Mean--
	got.counts["grep/w/ Multiverse/matches"]--
	if bad := checkPaper(got, want.MeasureInsts, want.MeasureCycles, want); len(bad) != 1 {
		t.Errorf("a wrong grep match count gave %v, want one problem", bad)
	}
	got.counts["grep/w/ Multiverse/matches"]++
	if bad := checkPaper(got, want.MeasureInsts+1, want.MeasureCycles, want); len(bad) != 1 {
		t.Errorf("a wrong instruction count gave %v, want one problem", bad)
	}
	if bad := checkPaper(&passResult{cycles: got.cycles[1:], counts: got.counts}, want.MeasureInsts, want.MeasureCycles, want); len(bad) == 0 {
		t.Error("a missing measurement passed")
	}
}

func TestCheckFleetRejectsUnservedRequests(t *testing.T) {
	res := &fleet.Result{Requests: 120, Served: 100, Scheduled: 100, Kills: 3, Restarts: 3, CommitAborts: 2}
	want := res.Fingerprint()
	if bad := checkFleet(res, want); len(bad) != 0 {
		t.Fatalf("a good result fails: %v", bad)
	}
	short := *res
	short.Served = 99
	if bad := checkFleet(&short, want); len(bad) == 0 || fleetFailed(&short) != 1 {
		t.Errorf("Served < Scheduled passed (%v) or was not counted as failed (%d)", bad, fleetFailed(&short))
	}
	lost := *res
	lost.Failed = 1
	if bad := checkFleet(&lost, want); len(bad) == 0 || fleetFailed(&lost) != 1 {
		t.Error("a permanently failed machine passed")
	}
	calm := *res
	calm.Kills, calm.Restarts = 0, 0
	if bad := checkFleet(&calm, calm.Fingerprint()); len(bad) != 1 {
		t.Errorf("a run without chaos gave %v, want one problem", bad)
	}
	if bad := checkFleet(res, want+" "); len(bad) != 1 {
		t.Errorf("a fingerprint mismatch gave %v, want one problem", bad)
	}
}

func TestCheckPatchRejectsFlippedByteAndAuditError(t *testing.T) {
	want, err := loadPatchOracle()
	if err != nil {
		t.Fatal(err)
	}
	const key = "revert 1->pristine"
	pristine := [][]byte{{0xe8, 1, 2, 3, 4}, {0x90, 0x90}}
	image := [][]byte{{0xe8, 1, 2, 3, 4}, {0x90, 0x90}}
	ok := patchObs{key: key, got: want.Ops[key], image: image, pristine: pristine}
	if bad := checkPatchOp(ok, want); len(bad) != 0 {
		t.Fatalf("a good revert fails: %v", bad)
	}
	image[1][0] ^= 0x01
	if bad := checkPatchOp(ok, want); len(bad) != 1 {
		t.Errorf("one flipped reverted byte gave %v, want one problem", bad)
	}
	image[1][0] ^= 0x01
	audited := ok
	audited.audit = errors.New("site 0x401000: call target is not a variant")
	if bad := checkPatchOp(audited, want); len(bad) != 1 {
		t.Errorf("an audit error gave %v, want one problem", bad)
	}
	counts := ok
	counts.got.ProtectCalls++
	if bad := checkPatchOp(counts, want); len(bad) != 1 {
		t.Errorf("a wrong protect-call count gave %v, want one problem", bad)
	}
	partial := patchObs{key: "commit 0->1", got: want.Ops["commit 0->1"]}
	partial.got.Sites--
	if bad := checkPatchOp(partial, want); len(bad) != 1 {
		t.Errorf("a commit missing a site gave %v, want one problem", bad)
	}
}

func TestBuildResultRejectsNonFiniteMetric(t *testing.T) {
	o := newOutcome()
	o.attempted = 1
	res := buildResult(o, endToEnd, map[string]float64{"setup_s": 1, "work_per_s": 1, "op_p50_ms": 1, "heap_mb": 1})
	if !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("a complete result is not correct: %+v", res)
	}
	zero := 0.0
	res = buildResult(o, endToEnd, map[string]float64{"setup_s": 1, "work_per_s": 1 / zero, "op_p50_ms": 1, "heap_mb": 1})
	if res.Correct {
		t.Error("an infinite metric passed")
	}
}
