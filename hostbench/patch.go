package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/kernelsim"
	"repro/internal/mem"
	"repro/internal/obj"
)

// The patch workload is E7's whole-kernel patching load: build the
// 1161-call-site kernel, then run a seeded sequence of config_smp
// flips, each followed by a full Commit, with Reverts interleaved;
// then build a fresh kernel and go on. It is the only workload where
// per-site commit cost and the compiler are hot.

// patchOpsPerKernel is how many commits and reverts run against one
// built kernel before the next build. With ~0.7 ms per commit and
// ~20 ms per build it keeps both the build and the commit path busy.
const patchOpsPerKernel = 24

//go:embed oracle/patch.json
var patchOracleJSON []byte

// patchOracle pins what the E7 kernel and its transactions must
// produce. Ops maps a transition ("commit pristine->1",
// "revert 0->pristine", ...) to the modeled memory-system work it does.
type patchOracle struct {
	CallSites      int                  `json:"call_sites"`
	SitesPerCommit int                  `json:"sites_per_commit"`
	TextBytes      uint64               `json:"text_bytes"`
	Ops            map[string]opCounter `json:"ops"`
}

// opCounter is the per-operation work the check compares: sites
// touched and the mem.Stats deltas.
type opCounter struct {
	Sites        int    `json:"sites"`
	ProtectCalls uint64 `json:"protect_calls"`
	Flushes      uint64 `json:"flushes"`
}

func loadPatchOracle() (*patchOracle, error) {
	var o patchOracle
	if err := json.Unmarshal(patchOracleJSON, &o); err != nil {
		return nil, fmt.Errorf("patch oracle: %w", err)
	}
	return &o, nil
}

// patchObs is what one commit or revert was seen to do.
type patchObs struct {
	key   string    // transition, the oracle's Ops key
	got   opCounter // sites touched and mem.Stats deltas
	audit error     // rt.Audit() after the operation
	// For a revert, image holds every PatchRanges() byte afterwards
	// and pristine the same bytes as the kernel was built.
	image, pristine [][]byte
}

// checkPatchOp lists every way one operation deviates from the oracle.
func checkPatchOp(obs patchObs, want *patchOracle) []string {
	var bad []string
	w, ok := want.Ops[obs.key]
	if !ok {
		bad = append(bad, fmt.Sprintf("%s: transition not in the oracle", obs.key))
	} else if obs.got != w {
		bad = append(bad, fmt.Sprintf("%s: sites=%d protect_calls=%d flushes=%d, oracle sites=%d protect_calls=%d flushes=%d",
			obs.key, obs.got.Sites, obs.got.ProtectCalls, obs.got.Flushes, w.Sites, w.ProtectCalls, w.Flushes))
	}
	if obs.audit != nil {
		bad = append(bad, fmt.Sprintf("%s: audit: %v", obs.key, obs.audit))
	}
	if obs.pristine != nil {
		if i, same := sameImage(obs.image, obs.pristine); !same {
			bad = append(bad, fmt.Sprintf("%s: patch range %d differs from the pristine image", obs.key, i))
		}
	}
	return bad
}

// sameImage compares two reads of the patch ranges; on a difference it
// returns the index of the first differing range.
func sameImage(a, b [][]byte) (int, bool) {
	if len(a) != len(b) {
		return 0, false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return i, false
		}
	}
	return 0, true
}

func readRanges(m *mem.Memory, rs []core.PatchRange) ([][]byte, error) {
	out := make([][]byte, len(rs))
	for i, r := range rs {
		out[i] = make([]byte, r.Len)
		if err := m.Read(r.Addr, out[i]); err != nil {
			return nil, fmt.Errorf("reading patch range %#x: %w", r.Addr, err)
		}
	}
	return out, nil
}

func stateName(v int) string {
	if v < 0 {
		return "pristine"
	}
	return fmt.Sprint(v)
}

// patchKernel drives one built kernel through its operations.
type patchKernel struct {
	r        *runner
	want     *patchOracle
	sys      *core.System
	ranges   []core.PatchRange
	pristine [][]byte
	state    int // committed config_smp value, -1 before the first commit and after a revert

	build      time.Duration // BuildManyCallSites
	buildAlloc uint64        // bytes the build allocated
	heapBase   uint64        // live heap before the build

	commitMS, revertMS, auditMS []float64
	rates                       []float64 // sites rewritten per second, per operation
}

func (k *patchKernel) counters() opCounter {
	st := k.sys.RT.Stats
	ms := k.sys.Machine.Mem.Stats
	return opCounter{Sites: st.SitesPatched + st.SitesInlined + st.SitesReverted,
		ProtectCalls: ms.ProtectCalls, Flushes: ms.Flushes}
}

func (k *patchKernel) delta(before opCounter) opCounter {
	a := k.counters()
	return opCounter{Sites: a.Sites - before.Sites,
		ProtectCalls: a.ProtectCalls - before.ProtectCalls, Flushes: a.Flushes - before.Flushes}
}

// op runs one commit (to value v) or, when v < 0, one revert, and
// checks it.
func (k *patchKernel) op(v int, ms *runtime.MemStats) error {
	o, tr, rt := k.r.out, k.r.tr, k.sys.RT
	obs := patchObs{key: fmt.Sprintf("commit %s->%s", stateName(k.state), stateName(v))}
	name := "Runtime.Commit"
	if v < 0 {
		obs.key = fmt.Sprintf("revert %s->pristine", stateName(k.state))
		name = "Runtime.Revert"
	} else if err := tr.do("System.SetSwitch", func() error { return k.sys.SetSwitch("config_smp", int64(v)) }); err != nil {
		return err
	}
	before := k.counters()
	runtime.ReadMemStats(ms)
	alloc0 := ms.TotalAlloc
	t := time.Now()
	err := tr.inPhase("commit", func() error {
		return tr.do(name, func() error {
			if v < 0 {
				return rt.Revert()
			}
			_, err := rt.Commit()
			return err
		})
	})
	d := time.Since(t)
	runtime.ReadMemStats(ms)
	alloc := ms.TotalAlloc - alloc0
	o.attempted++
	if err != nil {
		o.failed++
		o.problems = append(o.problems, fmt.Sprintf("%s: %v", obs.key, err))
		return nil
	}
	obs.got = k.delta(before)
	k.state = v
	k.rates = append(k.rates, float64(obs.got.Sites)/d.Seconds())

	t = time.Now()
	_ = tr.do("Runtime.Audit", func() error {
		obs.audit = rt.Audit()
		return obs.audit
	})
	k.auditMS = append(k.auditMS, ms1(time.Since(t)))
	if v < 0 {
		k.revertMS = append(k.revertMS, ms1(d))
		obs.pristine = k.pristine
		if err := tr.do("Memory.Read", func() (err error) {
			obs.image, err = readRanges(k.sys.Machine.Mem, k.ranges)
			return err
		}); err != nil {
			return err
		}
	} else {
		k.commitMS = append(k.commitMS, ms1(d))
		o.sample("core.alloc_kb_per_commit", float64(alloc)/1024)
		o.sample("core.sites_per_commit", float64(obs.got.Sites))
		o.sample("mem.protect_calls_per_commit", float64(obs.got.ProtectCalls))
		o.sample("mem.flushes_per_commit", float64(obs.got.Flushes))
	}
	if bad := checkPatchOp(obs, k.want); len(bad) > 0 {
		o.failed++
		o.problems = append(o.problems, bad...)
	}
	return nil
}

// nextOp draws the next operation of the seeded flip sequence from the
// committed state (-1: pristine): from the pristine image, a commit to
// a random value; after a commit, a revert (-1) with probability 1/3,
// else a flip to the other value. Every commit thus changes the
// binding and touches every site.
func nextOp(rng *rand.Rand, state int) int {
	switch {
	case state < 0:
		return rng.Intn(2)
	case rng.Intn(3) != 0:
		return 1 - state
	}
	return -1
}

// patchKernelRun builds one kernel (the set-up the workload repeats)
// and runs patchOpsPerKernel operations against it.
func patchKernelRun(r *runner, want *patchOracle, rng *rand.Rand, ms *runtime.MemStats) (*patchKernel, error) {
	base := liveHeap(ms)
	alloc0 := ms.TotalAlloc
	var sys *core.System
	t := time.Now()
	err := r.tr.inPhase("build", func() error {
		return r.tr.do("kernelsim.BuildManyCallSites", func() (err error) {
			sys, err = kernelsim.BuildManyCallSites(want.CallSites)
			return err
		})
	})
	build := time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("kernelsim.BuildManyCallSites: %w", err)
	}
	runtime.ReadMemStats(ms)
	if text := sys.Machine.Image.Sections[obj.SecText].Size; text != want.TextBytes {
		r.out.fail("kernel text is %d bytes, oracle %d", text, want.TextBytes)
	}
	k := &patchKernel{r: r, want: want, sys: sys, state: -1,
		build: build, buildAlloc: ms.TotalAlloc - alloc0, heapBase: base}
	if err := r.tr.do("Runtime.PatchRanges", func() (err error) {
		k.ranges = sys.RT.PatchRanges()
		k.pristine, err = readRanges(sys.Machine.Mem, k.ranges)
		return err
	}); err != nil {
		return nil, err
	}
	for i := 0; i < patchOpsPerKernel; i++ {
		if err := k.op(nextOp(rng, k.state), ms); err != nil {
			return nil, err
		}
	}
	return k, nil
}

func runPatch(r *runner) {
	o := r.out
	want, err := loadPatchOracle()
	if err != nil {
		o.fail("%v", err)
		return
	}
	// The seed picks the flip sequence (nextOp).
	rng := rand.New(rand.NewSource(r.seed))
	var commitMS, revertMS, auditMS, buildMS []float64
	var ms runtime.MemStats
	// The first kernel is untimed warm-up; its operations are still
	// checked.
	if _, err := patchKernelRun(r, want, rng, &ms); err != nil {
		o.fail("%v", err)
		return
	}
	for r.more() {
		r.tr.nextRun()
		k, err := patchKernelRun(r, want, rng, &ms)
		if err != nil {
			o.fail("%v", err)
			return
		}
		live := liveHeap(&ms)
		runtime.KeepAlive(k)

		buildMS = append(buildMS, ms1(k.build))
		commitMS = append(commitMS, k.commitMS...)
		revertMS = append(revertMS, k.revertMS...)
		auditMS = append(auditMS, k.auditMS...)
		o.setupS = append(o.setupS, k.build.Seconds())
		o.rate = append(o.rate, k.rates...)
		o.heapMB = append(o.heapMB, heapMB(live, k.heapBase))
		o.sample("compile.alloc_mb_per_build", float64(k.buildAlloc)/(1<<20))
		o.sample("patch.text_bytes", float64(k.sys.Machine.Image.Sections[obj.SecText].Size))
	}
	o.opMS = commitMS
	o.layer["build_ms"] = median(buildMS)
	o.layer["commit_p50_ms"] = median(commitMS)
	o.layer["commit_p90_ms"] = percentile(commitMS, 90)
	o.layer["revert_p50_ms"] = median(revertMS)
	o.layer["audit_p50_ms"] = median(auditMS)
	o.report("build_ms", buildMS, "ms")
	o.report("commit_ms", commitMS, "ms")
	o.report("revert_ms", revertMS, "ms")
	o.report("audit_ms", auditMS, "ms")
	o.report("heap_mb", o.heapMB, "MB")
	o.report("setup_s", o.setupS, "s")
}

func patchInputs(seed int64, o *patchOracle) map[string]any {
	return map[string]any{
		"call_sites":       o.CallSites,
		"ops_per_kernel":   patchOpsPerKernel,
		"flip_seed":        seed,
		"flip_sequence":    "from pristine: commit to a random value; after a commit: revert with p=1/3, else flip",
		"commit_mode":      "parked (single CPU, no concurrent guest)",
		"sites_per_commit": o.SitesPerCommit,
	}
}
