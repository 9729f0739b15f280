package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/isa"
)

// manySitesSrc gives one multiversed function ten call sites, so a
// fault can land in the middle of a commit's site loop.
var manySitesSrc = func() string {
	var sb strings.Builder
	sb.WriteString(`
		multiverse int A;
		long n;
		multiverse void f(long* p) { if (A) { *p = *p + 2; n = n + 3; } else { *p = *p + 1; } }
	`)
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&sb, "void caller_%d(void) { f(&n); }\n", i)
	}
	return sb.String()
}()

func readPatchRanges(t *testing.T, sys *System) [][]byte {
	t.Helper()
	var out [][]byte
	for _, r := range sys.RT.PatchRanges() {
		buf := make([]byte, r.Len)
		if err := sys.Machine.Mem.Read(r.Addr, buf); err != nil {
			t.Fatalf("read patch range %#x: %v", r.Addr, err)
		}
		out = append(out, buf)
	}
	return out
}

func samePatchRanges(t *testing.T, got, want [][]byte, when string) {
	t.Helper()
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: patch range %d is %x, want %x", when, i, got[i], want[i])
		}
	}
}

// TestAbortRestoresSiteState aborts a ten-site commit part-way through
// its site loop — a persistent torn write on the k-th site, or a
// persistent protection fault stranding a middle site writable — in
// both the parked and the text-poke mode. The rollback must restore
// the image and every site's recorded state exactly: the image is
// byte-identical, the audit passes, and a later fault-free commit
// finds every site holding what the runtime believes it installed.
func TestAbortRestoresSiteState(t *testing.T) {
	const mid = 5
	type scenario struct {
		name  string
		point func(mode CommitMode) faultinject.Point
		site  int // sites the commit patches before the fault
	}
	var scenarios []scenario
	for _, k := range []int{0, 3, 7, 9} {
		scenarios = append(scenarios, scenario{
			name: fmt.Sprintf("tear-site-%d", k),
			site: k,
			point: func(mode CommitMode) faultinject.Point {
				op := uint64(k) // one write per site
				if mode == ModeTextPoke {
					op = uint64(3*k + 1) // the multi-byte tail of the BRK protocol
				}
				return faultinject.Point{Kind: faultinject.KindWriteTear, Op: op, Tear: 2}
			},
		})
	}
	scenarios = append(scenarios, scenario{
		name: fmt.Sprintf("protect-site-%d", mid),
		site: mid,
		point: func(mode CommitMode) faultinject.Point {
			// Fail the flip back to read-only after the bytes landed:
			// two flips per write, one write per site (three in poke
			// mode, whose tail write is the one that fails here).
			op := uint64(2*mid + 1)
			if mode == ModeTextPoke {
				op = uint64(6*mid + 3)
			}
			return faultinject.Point{Kind: faultinject.KindProtect, Op: op}
		},
	})

	for _, mode := range []CommitMode{ModeParked, ModeTextPoke} {
		for _, sc := range scenarios {
			t.Run(fmt.Sprintf("%v/%s", mode, sc.name), func(t *testing.T) {
				sys, err := BuildSystem(GenOptions{}, nil, Source{Name: "sites.mvc", Text: manySitesSrc})
				if err != nil {
					t.Fatal(err)
				}
				sys.RT.SetCommitOptions(CommitOptions{Mode: mode})
				gen, _ := sys.RT.FuncByName("f")
				if n := sys.RT.Sites(gen); n < 8 {
					t.Fatalf("f has %d call sites, want >= 8", n)
				}
				pristine := readPatchRanges(t, sys)
				pre := snapshotExec(t, sys)
				if err := sys.SetSwitch("A", 1); err != nil {
					t.Fatal(err)
				}

				plan := faultinject.Exact(sc.point(mode))
				plan.Attach(sys.Machine)
				before := sys.RT.Stats
				_, err = sys.RT.Commit()
				faultinject.Detach(sys.Machine)
				if !errors.Is(err, ErrCommitAborted) {
					t.Fatalf("faulted commit returned %v, want ErrCommitAborted", err)
				}
				if plan.Stats.Total() != 1 {
					t.Fatalf("fault fired %d times, want 1", plan.Stats.Total())
				}
				after := sys.RT.Stats
				if got := (after.SitesPatched + after.SitesInlined) - (before.SitesPatched + before.SitesInlined); got != sc.site {
					t.Fatalf("commit patched %d sites before the fault, want %d", got, sc.site)
				}
				assertExecEqual(t, sys, pre, "after abort")
				if err := sys.RT.Audit(); err != nil {
					t.Fatalf("audit after abort: %v", err)
				}

				if _, err := sys.RT.Commit(); err != nil {
					t.Fatalf("fault-free commit after abort: %v", err)
				}
				if err := sys.RT.Revert(); err != nil {
					t.Fatalf("revert after abort: %v", err)
				}
				samePatchRanges(t, readPatchRanges(t, sys), pristine, "after commit and revert")
				if err := sys.RT.Audit(); err != nil {
					t.Fatalf("audit after revert: %v", err)
				}
			})
		}
	}
}

// TestJournalRefusesOversizedWrite: a text write longer than a
// call-site window does not fit a journal entry, so writeTextDirect
// must refuse it before any byte or protection changes.
func TestJournalRefusesOversizedWrite(t *testing.T) {
	sys, err := BuildSystem(GenOptions{}, nil, Source{Name: "sites.mvc", Text: manySitesSrc})
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := sys.RT.FuncByName("f")
	pre := snapshotExec(t, sys)
	protBefore := sys.Machine.Mem.Stats.ProtectCalls
	old := make([]byte, isa.MemCallSiteLen+1)
	if err := sys.Machine.Mem.Read(gen, old); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, len(old))
	if err := sys.RT.writeTextDirect(gen, old, data); err == nil {
		t.Fatal("oversized journaled write succeeded")
	}
	assertExecEqual(t, sys, pre, "after refused write")
	if sys.Machine.Mem.Stats.ProtectCalls != protBefore {
		t.Fatal("refused write flipped a page protection")
	}
}
