package core

import (
	"strings"
	"testing"

	"repro/internal/link"
	"repro/internal/machine"
	"repro/internal/obj"
)

// corrupt builds the Figure 2 image, then lets tamper shrink or break a
// descriptor section before the runtime decodes it.
func corrupt(t *testing.T, tamper func(img *link.Image)) error {
	t.Helper()
	img, _, err := BuildImage(GenOptions{}, Source{Name: "fig2.mvc", Text: figure2Src})
	if err != nil {
		t.Fatal(err)
	}
	tamper(img)
	m, err := machine.New(img)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewRuntime(img, Platform{M: m})
	return err
}

func TestDecodeRejectsTruncatedVariablesSection(t *testing.T) {
	err := corrupt(t, func(img *link.Image) {
		r := img.Sections[obj.SecMVVars]
		r.Size -= 7 // no longer a multiple of 32
		img.Sections[obj.SecMVVars] = r
	})
	if err == nil || !strings.Contains(err.Error(), "multiple") {
		t.Errorf("err = %v", err)
	}
}

func TestDecodeRejectsTruncatedFunctionsSection(t *testing.T) {
	err := corrupt(t, func(img *link.Image) {
		r := img.Sections[obj.SecMVFuncs]
		r.Size = 20 // cuts into the header
		img.Sections[obj.SecMVFuncs] = r
	})
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("err = %v", err)
	}
}

func TestDecodeRejectsTruncatedCallsitesSection(t *testing.T) {
	err := corrupt(t, func(img *link.Image) {
		r := img.Sections[obj.SecMVCallSites]
		r.Size -= 3
		img.Sections[obj.SecMVCallSites] = r
	})
	if err == nil || !strings.Contains(err.Error(), "multiple") {
		t.Errorf("err = %v", err)
	}
}

func TestDecodeToleratesMissingSections(t *testing.T) {
	// A program without any multiverse annotation has no descriptor
	// sections at all; the runtime must come up empty but functional.
	img, _, err := BuildImage(GenOptions{}, Source{Name: "plain.mvc", Text: `
		long f(long x) { return x + 1; }
	`})
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(img)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(img, Platform{M: m})
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Vars()) != 0 || len(rt.Funcs()) != 0 {
		t.Errorf("descriptors from thin air: %+v", rt.desc)
	}
	res, err := rt.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 0 || res.Generic != 0 {
		t.Errorf("commit on empty runtime = %+v", res)
	}
	if err := rt.Revert(); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsCorruptCallSiteBytes(t *testing.T) {
	// Overwrite a recorded call site with junk before the runtime
	// starts: verification must fail loudly.
	img, _, err := BuildImage(GenOptions{}, Source{Name: "fig2.mvc", Text: figure2Src})
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(img)
	if err != nil {
		t.Fatal(err)
	}
	rtProbe, err := NewRuntime(img, Platform{M: m})
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := rtProbe.FuncByName("multi")
	site := rtProbe.sites[fn][0].desc.Addr
	if err := m.Mem.WriteForce(site, []byte{0xEE, 0xEE, 0xEE, 0xEE, 0xEE}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRuntime(img, Platform{M: m}); err == nil {
		t.Error("corrupt call site accepted at startup")
	}
}

func TestGuardStringRendering(t *testing.T) {
	sys := buildFig2(t)
	for _, fd := range sys.RT.Funcs() {
		for _, v := range fd.Variants {
			for _, g := range v.Guards {
				if g.VarAddr == 0 {
					t.Errorf("guard with null variable in %q", fd.Name)
				}
				if g.Lo > g.Hi {
					t.Errorf("inverted guard range [%d,%d]", g.Lo, g.Hi)
				}
			}
		}
	}
}
