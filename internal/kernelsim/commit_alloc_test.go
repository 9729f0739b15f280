package kernelsim

import "testing"

// commitAllocs returns the average allocations of one full TimeCommit
// flip on a kernel with n call sites.
func commitAllocs(t *testing.T, n int) float64 {
	t.Helper()
	sys, err := BuildManyCallSites(n)
	if err != nil {
		t.Fatal(err)
	}
	smp := false
	var ferr error
	allocs := testing.AllocsPerRun(20, func() {
		smp = !smp
		if _, err := TimeCommit(sys, smp); err != nil && ferr == nil {
			ferr = err
		}
	})
	if ferr != nil {
		t.Fatal(ferr)
	}
	return allocs
}

// TestCommitAllocsIndependentOfSiteCount pins the per-site commit path
// as allocation-free: a commit over the paper's 1161 call sites
// allocates no more than one over 64, and both stay small.
func TestCommitAllocsIndependentOfSiteCount(t *testing.T) {
	small := commitAllocs(t, 64)
	large := commitAllocs(t, PaperCallSites)
	t.Logf("allocations per commit: %v at 64 sites, %v at %d sites", small, large, PaperCallSites)
	if d := large - small; d > 2 || d < -2 {
		t.Errorf("allocations per commit grow with site count: %v at 64 sites, %v at %d", small, large, PaperCallSites)
	}
	for _, n := range []float64{small, large} {
		if n > 16 {
			t.Errorf("commit allocates %v times, want <= 16", n)
		}
	}
}
