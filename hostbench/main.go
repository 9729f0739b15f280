// Command hostbench is the repository's host-time benchmark. It drives
// the simulator, compiler, live-patching runtime and fleet through
// their public Go APIs, times them on the host clock, checks every
// result against an oracle that does not depend on host speed, and
// prints one JSON result line. See README.md for the workloads, the
// metrics and the layer each one watches.
//
// Run it from the repository root:
//
//	bash hostbench/run.sh --workload fleet-chaos --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, and span, profile and
// summary files are written under --out.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name   string
	run    func(r *runner)
	inputs func(seed int64) (map[string]any, error)
}

var workloads = []workload{
	{"fleet-chaos", runFleet, func(seed int64) (map[string]any, error) { return fleetInputs(seed), nil }},
	{"paper", runPaper, func(int64) (map[string]any, error) {
		o, err := loadPaperOracle()
		if err != nil {
			return nil, err
		}
		return paperInputs(o), nil
	}},
	{"patch", runPatch, func(seed int64) (map[string]any, error) {
		o, err := loadPatchOracle()
		if err != nil {
			return nil, err
		}
		return patchInputs(seed, o), nil
	}},
}

// metricDef is one reported metric; the same lists are in BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd metrics are reported by every workload. Each workload has
// its own unit of work and operation (README.md, "End-to-end metrics").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"heap_mb", "MB"},
}

// perLayer lists every per-layer metric of a traced run. A workload
// that never reaches a layer reports 0 for it.
func perLayer() []metricDef {
	var out []metricDef
	for _, p := range sharePkgs {
		out = append(out, metricDef{"share." + p, "fraction"})
	}
	for _, p := range buildSharePkgs {
		out = append(out, metricDef{"build.share." + p, "fraction"})
	}
	out = append(out,
		metricDef{"fleet.alloc_kb_per_req", "KB"},
		metricDef{"fleet.gc_count", "count"},
		metricDef{"fleet.replay_ratio", "fraction"},
		metricDef{"fleet.kills", "count"},
		metricDef{"fleet.restarts", "count"},
		metricDef{"fleet.snapshots", "count"},
		metricDef{"fleet.migrations", "count"},
		metricDef{"fleet.commit_aborts", "count"},
		metricDef{"fleet.commit_retries", "count"},
		metricDef{"fleet.parked_flips", "count"},
	)
	for _, e := range paperExperiments {
		out = append(out, metricDef{"measure_s." + e, "s"})
	}
	out = append(out,
		metricDef{"cpu.superblock_insts_ratio", "fraction"},
		metricDef{"cpu.decode_hit_ratio", "fraction"},
		metricDef{"cpu.superblock_builds", "count"},
		metricDef{"cpu.superblock_invalidated", "count"},
		metricDef{"cpu.insts", "count"},
		metricDef{"cpu.sim_cycles", "count"},
		metricDef{"paper.build_s", "s"},
		metricDef{"paper.reconfigure_s", "s"},
		metricDef{"build_ms", "ms"},
		metricDef{"commit_p50_ms", "ms"},
		metricDef{"commit_p90_ms", "ms"},
		metricDef{"revert_p50_ms", "ms"},
		metricDef{"audit_p50_ms", "ms"},
		metricDef{"core.alloc_kb_per_commit", "KB"},
		metricDef{"core.sites_per_commit", "count"},
		metricDef{"mem.protect_calls_per_commit", "count"},
		metricDef{"mem.flushes_per_commit", "count"},
		metricDef{"compile.alloc_mb_per_build", "MB"},
		metricDef{"patch.text_bytes", "bytes"},
		metricDef{"trace.overhead_pct", "%"},
	)
	return out
}

// runner is one measured stretch of a workload.
type runner struct {
	seed     int64
	deadline time.Time
	tr       *tracer // nil: untraced
	out      *outcome
	iters    int
}

// more reports whether to start another timed iteration: always a
// first one, then more until the deadline. Workloads ask between
// whole iterations, so every iteration completes.
func (r *runner) more() bool {
	r.iters++
	return r.iters == 1 || time.Now().Before(r.deadline)
}

// outcome is what one stretch measured and checked.
type outcome struct {
	attempted, failed int
	problems          []string

	setupS, rate, opMS, heapMB []float64 // one sample per iteration (per commit for patch's opMS)

	samples map[string][]float64 // per-layer samples, reported as medians
	layer   map[string]float64   // per-layer values computed once
	lines   []string             // human-readable report
}

func newOutcome() *outcome {
	return &outcome{samples: make(map[string][]float64), layer: make(map[string]float64)}
}

func (o *outcome) sample(name string, v float64) { o.samples[name] = append(o.samples[name], v) }

// fail records a problem that stopped the workload.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// report adds the human-readable form of a timing or size series.
func (o *outcome) report(name string, xs []float64, unit string) {
	o.lines = append(o.lines, fmt.Sprintf("%s: %s", name, describe(xs, unit)))
}

// layerValues is every per-layer value the outcome measured.
func (o *outcome) layerValues() map[string]float64 {
	out := make(map[string]float64, len(o.samples)+len(o.layer))
	for k, xs := range o.samples {
		out[k] = median(xs)
	}
	for k, v := range o.layer {
		out[k] = v
	}
	return out
}

func (o *outcome) correct() bool { return len(o.problems) == 0 && o.failed == 0 }

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap(ms *runtime.MemStats) uint64 {
	runtime.GC()
	runtime.ReadMemStats(ms)
	return ms.HeapAlloc
}

// heapMB is the live heap an iteration's objects hold: the live heap
// with them reachable minus the live heap before they were built, so
// the benchmark's own bookkeeping is left out.
func heapMB(live, base uint64) float64 {
	return (float64(live) - float64(base)) / (1 << 20)
}

func measure(w workload, seed int64, d time.Duration, tr *tracer) *outcome {
	r := &runner{seed: seed, deadline: time.Now().Add(d), tr: tr, out: newOutcome()}
	w.run(r)
	if r.out.attempted == 0 {
		r.out.attempted = 1
		r.out.failed = 1
		r.out.fail("no operation completed")
	}
	return r.out
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func endToEndValues(o *outcome) map[string]float64 {
	return map[string]float64{
		"setup_s":    median(o.setupS),
		"work_per_s": median(o.rate),
		"op_p50_ms":  median(o.opMS),
		"heap_mb":    median(o.heapMB),
	}
}

// buildResult assembles the result line from the named metrics. A
// metric missing from vals reports 0 (a layer the workload never
// reaches); one that is not a finite number is a failure.
func buildResult(o *outcome, defs []metricDef, vals map[string]float64) result {
	res := result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) || !validMetric(d.name, d.unit) {
			res.Correct = false
			o.fail("metric %s (%s) is invalid: %v", d.name, d.unit, v)
			v = 0
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	return res
}

func main() { os.Exit(mainErr()) }

func mainErr() int {
	name := flag.String("workload", "", "workload: fleet-chaos, paper or patch")
	seed := flag.Int64("seed", 1, "workload seed (fleet seed, patch flip sequence; the paper suite takes none)")
	seconds := flag.Int("seconds", 30, "how long to measure")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "hostbench"), "directory for traced-run artifacts")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "hostbench: usage: --workload fleet-chaos|paper|patch --seed N --seconds S --trace 0|1\n")
		return 2
	}
	inputs, err := w.inputs(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: %v\n", err)
		return 1
	}
	meta := hostMeta(w.name, *seed, *seconds, *traced == 1, inputs)
	metaLine, _ := json.Marshal(meta)
	fmt.Printf("hostbench: meta %s\n", metaLine)

	dur := time.Duration(*seconds) * time.Second
	var res result
	if *traced == 0 {
		o := measure(*w, *seed, dur, nil)
		printOutcome(w.name, "", o)
		res = buildResult(o, endToEnd, endToEndValues(o))
	} else {
		o, err := tracedRun(*w, *seed, dur, *outDir, meta)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hostbench: %v\n", err)
			return 1
		}
		res = o
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printOutcome(workload, tag string, o *outcome) {
	for _, l := range o.lines {
		fmt.Printf("hostbench: %s%s %s\n", workload, tag, l)
	}
	fmt.Printf("hostbench: %s%s operations attempted=%d failed=%d\n", workload, tag, o.attempted, o.failed)
	const maxShown = 20
	for i, p := range o.problems {
		if i == maxShown {
			fmt.Fprintf(os.Stderr, "hostbench: %s: ... %d more problems\n", workload, len(o.problems)-maxShown)
			break
		}
		fmt.Fprintf(os.Stderr, "hostbench: %s: CHECK FAILED: %s\n", workload, p)
	}
}

func hostMeta(workload string, seed int64, seconds int, traced bool, inputs map[string]any) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"seconds":    seconds,
		"traced":     traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"inputs":     inputs,
	}
}

// tracedRun measures the workload twice for half the time each: first
// untraced, then with spans and a CPU profile. Per-layer timings come
// from the untraced half, profile shares and spans from the traced
// one, and the difference in work rate between the two is the
// tracing overhead.
func tracedRun(w workload, seed int64, d time.Duration, outDir string, meta map[string]any) (result, error) {
	plain := measure(w, seed, d/2, nil)
	printOutcome(w.name, " (untraced half)", plain)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	tr := newTracer()
	traced := measure(w, seed, d/2, tr)
	pprof.StopCPUProfile()
	printOutcome(w.name, " (traced half)", traced)

	sh, err := chargeProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	vals := traced.layerValues()
	for k, v := range plain.layerValues() {
		if strings.HasSuffix(k, "_ms") || strings.HasSuffix(k, "_s") || strings.HasPrefix(k, "measure_s.") {
			vals[k] = v // timings: take the unperturbed half
		}
	}
	for _, p := range sharePkgs {
		vals["share."+p] = sh.share(p)
	}
	for _, p := range buildSharePkgs {
		vals["build.share."+p] = sh.phaseShare("build", p)
	}
	plainRate, tracedRate := median(plain.rate), median(traced.rate)
	overhead := 0.0
	if tracedRate > 0 {
		overhead = (plainRate/tracedRate - 1) * 100
	}
	vals["trace.overhead_pct"] = overhead
	fmt.Printf("hostbench: %s tracing overhead: work_per_s untraced=%.6g traced=%.6g (%+.2f%%)\n",
		w.name, plainRate, tracedRate, overhead)

	// Both halves' checks count.
	merged := newOutcome()
	merged.attempted = plain.attempted + traced.attempted
	merged.failed = plain.failed + traced.failed
	merged.problems = append(append(merged.problems, plain.problems...), traced.problems...)

	if err := writeArtifacts(w.name, seed, outDir, meta, prof.Bytes(), tr.spans, sh, vals, overhead); err != nil {
		return result{}, err
	}
	return buildResult(merged, perLayer(), vals), nil
}

// writeArtifacts stores the traced run's spans, raw CPU profile and a
// summary (metadata, per-package shares, span totals, per-layer values
// and the tracing overhead) under outDir.
func writeArtifacts(workload string, seed int64, outDir string, meta map[string]any, prof []byte,
	spans []span, sh *shares, vals map[string]float64, overhead float64) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", workload, seed))
	byPkg := make(map[string]float64)
	for _, p := range sharePkgs {
		byPkg[p] = sh.share(p)
	}
	phases := make(map[string]map[string]float64)
	for ph := range sh.ByPhase {
		phases[ph] = make(map[string]float64)
		for _, p := range sharePkgs {
			if v := sh.phaseShare(ph, p); v > 0 {
				phases[ph][p] = v
			}
		}
	}
	summary := map[string]any{
		"meta":               meta,
		"profile_shares":     byPkg,
		"profile_by_phase":   phases,
		"spans":              summarize(spans),
		"per_layer":          vals,
		"trace_overhead_pct": overhead,
	}
	files := []struct {
		path string
		data any
	}{
		{base + "-spans.json", map[string]any{"meta": meta, "spans": spans}},
		{base + "-summary.json", summary},
	}
	for _, f := range files {
		b, err := json.MarshalIndent(f.data, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(f.path, b, 0o644); err != nil {
			return err
		}
	}
	if err := os.WriteFile(base+"-cpu.pprof", prof, 0o644); err != nil {
		return err
	}
	names := make([]string, 0, len(byPkg))
	for p := range byPkg {
		names = append(names, p)
	}
	sort.Slice(names, func(i, j int) bool { return byPkg[names[i]] > byPkg[names[j]] })
	var top []string
	for _, p := range names[:5] {
		top = append(top, fmt.Sprintf("%s=%.3f", p, byPkg[p]))
	}
	fmt.Printf("hostbench: %s profile shares (top 5): %s\n", workload, strings.Join(top, " "))
	fmt.Printf("hostbench: %s artifacts: %s-{spans,summary}.json %s-cpu.pprof\n", workload, base, base)
	return nil
}
