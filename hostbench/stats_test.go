package main

import (
	"bytes"
	"context"
	"errors"
	"runtime/pprof"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: the helpers must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{4}, 4}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := mean([]float64{1, 2, 6}); got != 3 || mean(nil) != 0 {
		t.Errorf("mean = %v", got)
	}
}

// The expected quartiles are what Python's statistics.quantiles(xs,
// n=4) returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{seq(4), 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 9, 3, 7}, 2, 8},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestHighestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		p     float64
		value float64
		ok    bool
	}{
		{19, 0, 0, false}, // the median has only 9 beyond it
		{20, 50, 10, true},
		{40, 75, 30, true},
		{100, 90, 90, true},
		{199, 90, 180, true},
		{200, 95, 190, true},
		{1000, 99, 990, true},
		{10000, 99.9, 9990, true},
	} {
		got := highestTail(seq(c.n))
		if got.OK != c.ok || got.P != c.p || got.Value != c.value {
			t.Errorf("n=%d: got %+v, want p%v=%v ok=%v", c.n, got, c.p, c.value, c.ok)
		}
		if got.OK {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > got.Value {
					beyond++
				}
			}
			if beyond < tailMinBeyond {
				t.Errorf("n=%d: p%v has %d samples beyond it", c.n, got.P, beyond)
			}
		}
	}
	if got := percentile(seq(10), 90); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9", got)
	}
}

func TestMetricNames(t *testing.T) {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if !validMetric(d.name, d.unit) {
			t.Errorf("invalid metric %q (%q)", d.name, d.unit)
		}
	}
	for _, bad := range []metricDef{{"", "s"}, {"_x", "s"}, {"a b", "s"}, {"a/b", "s"}, {"x", ""},
		{"x", "a unit with spaces"}, {"x", "unit-longer-than-16"}, {string(make([]byte, 65)), "s"}} {
		if validMetric(bad.name, bad.unit) {
			t.Errorf("accepted invalid metric %q (%q)", bad.name, bad.unit)
		}
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct{ name, file, want string }{
		{"repro/internal/core.(*Runtime).Commit", "/src/internal/core/runtime.go", "core"},
		{"repro/internal/core.generateVariants", "/src/internal/core/variantgen.go", "variantgen"},
		{"repro/internal/cpu.(*CPU).stepFastN", "/src/internal/cpu/superblock.go", "cpu"},
		{"repro/internal/snapshot.(*Snapshot).Encode.func1", "/src/internal/snapshot/format.go", "snapshot"},
		{"repro/internal/chaos.Run", "/src/internal/chaos/chaos.go", "other"},
		{"main.runFleet", "/src/hostbench/fleet.go", "harness"},
	} {
		if got, ok := classify(c.name, c.file); !ok || got != c.want {
			t.Errorf("classify(%s) = %q, %v; want %q", c.name, got, ok, c.want)
		}
	}
	if _, ok := classify("runtime.mallocgc", "/go/src/runtime/malloc.go"); ok {
		t.Error("a runtime frame was charged to the repository")
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

// TestChargeProfile profiles a busy loop in this package, labelled as
// the build phase, and decodes the real profile the runtime writes.
func TestChargeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiling unavailable:", err)
	}
	pprof.Do(context.Background(), pprof.Labels("phase", "build"), func(context.Context) { spin(300 * time.Millisecond) })
	pprof.StopCPUProfile()
	sh, err := chargeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if sh.Total == 0 {
		t.Skip("no samples taken")
	}
	if got := sh.share("harness"); got < 0.5 {
		t.Errorf("harness share %.2f of a harness busy loop", got)
	}
	if got := sh.phaseShare("build", "harness"); got < 0.5 {
		t.Errorf("build-phase harness share %.2f", got)
	}
	var sum float64
	for _, p := range sharePkgs {
		sum += sh.share(p)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v", sum)
	}
	if _, err := chargeProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded as a profile")
	}
}

func TestSummarizeSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "outer", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "inner", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "inner", StartNS: 50, EndNS: 70},
	}
	got := summarize(spans)
	if len(got) != 2 || got[0].Name != "outer" || got[0].SelfMS != 50e-6 || got[1].Count != 2 || got[1].TotalMS != 50e-6 {
		t.Errorf("summarize = %+v", got)
	}
	var off *tracer
	if err := off.do("x", func() error { return nil }); err != nil {
		t.Error(err)
	}
	tr := newTracer()
	tr.nextRun()
	_ = tr.do("outer", func() error {
		return tr.do("inner", func() error { return errors.New("boom") })
	})
	_ = tr.do("next", func() error { return nil })
	if len(tr.spans) != 3 || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[2].Parent != 0 ||
		tr.spans[0].Err != "boom" || tr.spans[1].Run != 1 {
		t.Errorf("spans = %+v", tr.spans)
	}
}
