package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/grepsim"
	"repro/internal/kernelsim"
	"repro/internal/obj"
)

var update = flag.Bool("update", false, "rewrite oracle/*.json from the current code instead of checking it")

// mvbenchCycles runs the repository's mvbench at the oracle's sample
// settings and returns its -json measurements.
func mvbenchCycles(t *testing.T, o *paperOracle) []cycleEntry {
	t.Helper()
	if o.Warmup != 5 {
		t.Fatalf("oracle warmup %d: mvbench always warms up 5 samples", o.Warmup)
	}
	out := filepath.Join(t.TempDir(), "mvbench.json")
	cmd := exec.Command("go", "run", "./cmd/mvbench",
		"-samples", fmt.Sprint(o.Samples), "-iters", fmt.Sprint(o.Iters), "-json", out)
	cmd.Dir = ".."
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("mvbench: %v\n%s", err, b)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Results []struct {
			Experiment string `json:"experiment"`
			Label      string `json:"label"`
			Result     struct {
				Mean float64 `json:"mean"`
				Std  float64 `json:"std"`
			} `json:"result"`
		} `json:"results"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var got []cycleEntry
	for _, r := range doc.Results {
		got = append(got, cycleEntry{r.Experiment, r.Label, r.Result.Mean, r.Result.Std})
	}
	return got
}

func writeOracle(t *testing.T, name string, v any) {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false) // keep the "->" of transition names readable
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("oracle", name), b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote oracle/%s", name)
}

// TestPaperOracle cross-checks the pinned E1–E10 table three ways: it
// equals what `mvbench -json` reports at the same sample settings (so
// the benchmark's drivers cannot drift from the tool), it equals what
// the benchmark's own pass measures, and its grep and E7 counts equal
// host-side references.
func TestPaperOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full E1–E10 suite twice")
	}
	want, err := loadPaperOracle()
	if err != nil {
		t.Fatal(err)
	}
	tool := mvbenchCycles(t, want)
	p, err := runPass(want, nil)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		want.Cycles, want.Counts = tool, p.res.counts
		want.MeasureInsts, want.MeasureCycles = p.insts, p.cycles
		writeOracle(t, "paper.json", want)
	}
	if len(tool) != len(want.Cycles) {
		t.Fatalf("mvbench recorded %d measurements, oracle has %d", len(tool), len(want.Cycles))
	}
	for i := range tool {
		if tool[i] != want.Cycles[i] {
			t.Errorf("mvbench %+v, oracle %+v", tool[i], want.Cycles[i])
		}
	}
	for _, bad := range checkPaper(p.res, p.insts, p.cycles, want) {
		t.Errorf("benchmark pass: %s", bad)
	}
	ref := grepsim.ReferenceMatches(grepsim.Corpus(grepsim.CorpusSize))
	for _, b := range []grepsim.Build{grepsim.Plain, grepsim.Multiverse} {
		if got := want.Counts["grep/"+b.String()+"/matches"]; got != ref {
			t.Errorf("oracle grep %s matches %d, host reference %d", b, got, ref)
		}
	}
	sites := uint64(kernelsim.PaperCallSites + 1) // n/2 functions, one lock and one unlock site each
	for _, k := range []string{"overheads/call_sites", "overheads/sites_touched/smp=true", "overheads/sites_touched/smp=false"} {
		if want.Counts[k] != sites {
			t.Errorf("oracle %s = %d, want %d", k, want.Counts[k], sites)
		}
	}
}

// TestPatchOracle drives one E7 kernel through every transition the
// flip sequence can take and checks (or with -update, pins) the
// modeled counts of each.
func TestPatchOracle(t *testing.T) {
	want, err := loadPatchOracle()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := kernelsim.BuildManyCallSites(want.CallSites)
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{out: newOutcome()}
	k := &patchKernel{r: r, want: want, sys: sys, state: -1, ranges: sys.RT.PatchRanges()}
	if k.pristine, err = readRanges(sys.Machine.Mem, k.ranges); err != nil {
		t.Fatal(err)
	}
	// pristine->0, 0->1, 1->0, revert 0, pristine->1, revert 1.
	seq := []int{0, 1, 0, -1, 1, -1}
	if *update {
		pinned := &patchOracle{CallSites: want.CallSites, Ops: make(map[string]opCounter),
			SitesPerCommit: kernelsim.PaperCallSites + 1,
			TextBytes:      sys.Machine.Image.Sections[obj.SecText].Size}
		for _, v := range seq {
			key := fmt.Sprintf("commit %s->%s", stateName(k.state), stateName(v))
			before := k.counters()
			if v < 0 {
				key = fmt.Sprintf("revert %s->pristine", stateName(k.state))
				if err := sys.RT.Revert(); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := sys.SetSwitch("config_smp", int64(v)); err != nil {
					t.Fatal(err)
				}
				if _, err := sys.RT.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			pinned.Ops[key] = k.delta(before)
			k.state = v
		}
		writeOracle(t, "patch.json", pinned)
		return
	}
	var ms runtime.MemStats
	for _, v := range seq {
		if err := k.op(v, &ms); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range r.out.problems {
		t.Error(p)
	}
	if r.out.attempted != len(seq) || r.out.failed != 0 {
		t.Errorf("attempted %d failed %d, want %d and 0", r.out.attempted, r.out.failed, len(seq))
	}
	if want.SitesPerCommit != kernelsim.PaperCallSites+1 {
		t.Errorf("oracle sites per commit %d, want %d", want.SitesPerCommit, kernelsim.PaperCallSites+1)
	}
	for key, c := range want.Ops {
		if c.Sites != want.SitesPerCommit {
			t.Errorf("%s touches %d sites, want every one of %d", key, c.Sites, want.SitesPerCommit)
		}
	}
}

// TestWorkloadsPassOnTwoSeeds runs one short stretch of each seeded
// workload on two seeds; every check must pass on both, and the seed
// must reach the workload's inputs.
func TestWorkloadsPassOnTwoSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fleet and patch workloads")
	}
	for _, w := range workloads {
		if w.name == "paper" {
			continue // seedless; TestPaperOracle runs a full pass
		}
		for _, seed := range []int64{1, 2} {
			o := measure(w, seed, time.Nanosecond, nil)
			if !o.correct() {
				t.Errorf("%s seed %d: %v", w.name, seed, o.problems)
			}
			if len(o.rate) == 0 || len(o.setupS) == 0 || len(o.opMS) == 0 || len(o.heapMB) == 0 {
				t.Errorf("%s seed %d: missing end-to-end samples", w.name, seed)
			}
		}
	}
	seen := make(map[int64]bool)
	for _, seed := range []int64{1, 2} {
		for _, s := range fleetSeeds(seed) {
			if seen[s] || fleetConfig(s).Seed != s {
				t.Errorf("benchmark seed %d: fleet seed %d is shared or does not reach fleet.Config.Seed", seed, s)
			}
			seen[s] = true
		}
	}
	seq := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		var out []int
		for s, i := -1, 0; i < 48; i++ {
			s = nextOp(rng, s)
			out = append(out, s)
		}
		return out
	}
	if fmt.Sprint(seq(1)) == fmt.Sprint(seq(2)) {
		t.Error("patch flip sequences do not depend on the seed")
	}
}
