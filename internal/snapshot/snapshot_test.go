package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/faultinject"
	"repro/internal/machine"
)

// testSrc exercises every serialized subsystem: two switches and a
// multiversed function (runtime binding state), globals (data pages),
// and a loop long enough to warm the predictors, decode cache and
// superblocks.
const testSrc = `
	multiverse int mode;
	multiverse int verbose;
	long work;
	long extra;
	multiverse void step(void) {
		if (mode) {
			work += 3;
			if (verbose) { extra++; }
		} else {
			work += 1;
		}
	}
	long spin(long n) {
		long i;
		for (i = 0; i < n; i++) { step(); }
		return work;
	}
	long total(void) { return work + extra; }
`

type sys struct {
	m  *machine.Machine
	rt *core.Runtime
}

// buildPair constructs two machine+runtime pairs from one image — the
// restore situation: same image, fresh state.
func buildPair(t *testing.T) (*sys, *sys) {
	t.Helper()
	img, _, err := core.BuildImage(core.GenOptions{}, core.Source{Name: "snap.mvc", Text: testSrc})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *sys {
		m, err := machine.New(img)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := core.NewRuntime(img, core.Platform{M: m})
		if err != nil {
			t.Fatal(err)
		}
		return &sys{m: m, rt: rt}
	}
	return mk(), mk()
}

func (s *sys) setSwitch(t *testing.T, name string, v int64) {
	t.Helper()
	if err := s.m.WriteGlobal(name, 4, uint64(v)); err != nil {
		t.Fatal(err)
	}
}

func (s *sys) call(t *testing.T, name string, args ...uint64) uint64 {
	t.Helper()
	v, err := s.m.CallNamed(name, args...)
	if err != nil {
		t.Fatalf("call %s: %v", name, err)
	}
	return v
}

// warm runs the program into an interesting state: committed variant,
// warmed caches, non-trivial console.
func (s *sys) warm(t *testing.T) {
	t.Helper()
	s.setSwitch(t, "mode", 1)
	s.setSwitch(t, "verbose", 1)
	if _, err := s.rt.Commit(); err != nil {
		t.Fatal(err)
	}
	s.call(t, "spin", 500)
	s.m.RestoreConsole([]byte("console so far"))
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	a, _ := buildPair(t)
	a.warm(t)
	snap, err := Capture(a.m, a.rt)
	if err != nil {
		t.Fatal(err)
	}
	data := snap.Encode()
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Fatalf("decode round-trip diverged:\nexported: %+v\ndecoded:  %+v", snap, got)
	}
	// Decoding must be canonical: re-encoding reproduces the input.
	if !bytes.Equal(got.Encode(), data) {
		t.Fatal("re-encode of decoded snapshot differs from original bytes")
	}
}

func TestDigestNamesMachineState(t *testing.T) {
	a, _ := buildPair(t)
	a.warm(t)
	s1, err := Capture(a.m, a.rt)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Capture(a.m, a.rt)
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := s1.Encode(), s2.Encode()
	if !bytes.Equal(e1, e2) {
		t.Fatal("two captures of the same instant are not byte-equal")
	}
	d1, err := Digest(e1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1) != 64 {
		t.Fatalf("digest %q is not hex SHA-256", d1)
	}
	a.call(t, "spin", 1)
	s3, err := Capture(a.m, a.rt)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := Digest(s3.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d3 {
		t.Fatal("digest unchanged after executing instructions")
	}
}

// TestApplyResumesBitIdentical is the package-local restore difftest:
// state captured between calls, applied to a fresh machine from the
// same image, and both continued identically must agree on every
// observable — cycles, statistics, state report, console, results.
// (The full mid-call RunUntil version over E1/E4 lives in
// internal/difftest.)
func TestApplyResumesBitIdentical(t *testing.T) {
	a, b := buildPair(t)
	a.warm(t)
	snap, err := Capture(a.m, a.rt)
	if err != nil {
		t.Fatal(err)
	}

	if err := Apply(snap, b.m, b.rt); err != nil {
		t.Fatal(err)
	}

	// Continue both runs through the same tail, including a revert and
	// recommit so the runtime layer keeps working after restore.
	tail := func(s *sys) (uint64, uint64) {
		s.call(t, "spin", 100)
		if err := s.rt.Revert(); err != nil {
			t.Fatal(err)
		}
		s.setSwitch(t, "verbose", 0)
		if _, err := s.rt.Commit(); err != nil {
			t.Fatal(err)
		}
		r1 := s.call(t, "spin", 50)
		r2 := s.call(t, "total")
		return r1, r2
	}
	a1, a2 := tail(a)
	b1, b2 := tail(b)

	if a1 != b1 || a2 != b2 {
		t.Fatalf("results diverged: uninterrupted (%d,%d) restored (%d,%d)", a1, a2, b1, b2)
	}
	if ac, bc := a.m.CPU.Cycles(), b.m.CPU.Cycles(); ac != bc {
		t.Fatalf("cycles diverged: uninterrupted %d restored %d", ac, bc)
	}
	if as, bs := a.m.TotalStats(), b.m.TotalStats(); as != bs {
		t.Fatalf("stats diverged:\nuninterrupted %+v\nrestored      %+v", as, bs)
	}
	if ar, br := a.rt.StateReport(), b.rt.StateReport(); ar != br {
		t.Fatalf("state reports diverged:\nuninterrupted:\n%s\nrestored:\n%s", ar, br)
	}
	if !bytes.Equal(a.m.Console(), b.m.Console()) {
		t.Fatalf("console diverged: %q vs %q", a.m.Console(), b.m.Console())
	}

	// The final machine states must agree down to the digest.
	sa, err := Capture(a.m, a.rt)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Capture(b.m, b.rt)
	if err != nil {
		t.Fatal(err)
	}
	da, _ := Digest(sa.Encode())
	db, _ := Digest(sb.Encode())
	if da != db {
		t.Fatalf("final digests diverged: %s vs %s", da, db)
	}
}

func TestApplyRejectsDifferentImage(t *testing.T) {
	a, _ := buildPair(t)
	a.warm(t)
	snap, err := Capture(a.m, a.rt)
	if err != nil {
		t.Fatal(err)
	}
	other, err := core.BuildSystem(core.GenOptions{}, nil,
		core.Source{Name: "other.mvc", Text: `long f(void) { return 7; }`})
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(snap, other.Machine, other.RT); err == nil {
		t.Fatal("applied a snapshot to a different image")
	}
}

func TestApplyRuntimePresenceMustMatch(t *testing.T) {
	a, b := buildPair(t)
	a.warm(t)
	snap, err := Capture(a.m, a.rt)
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(snap, b.m, nil); err == nil {
		t.Fatal("applied runtime-bearing snapshot without a runtime")
	}
	bare, err := Capture(a.m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(bare, b.m, b.rt); err == nil {
		t.Fatal("applied runtime-free snapshot onto a runtime")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	a, _ := buildPair(t)
	a.warm(t)
	snap, err := Capture(a.m, a.rt)
	if err != nil {
		t.Fatal(err)
	}
	data := snap.Encode()

	if _, err := Decode(nil); err == nil {
		t.Error("decoded empty input")
	}
	// Every truncation must fail cleanly: the container length check
	// catches all of them before the payload is even parsed.
	for _, n := range []int{1, 7, 8, headerLen - 1, headerLen, headerLen + 4, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:n]); err == nil {
			t.Errorf("decoded %d-byte truncation", n)
		}
	}
	// A flipped bit anywhere in the payload trips the CRC; in the
	// header it trips magic/version/length validation.
	for _, off := range []int{0, 9, 13, 17, headerLen, headerLen + 100, len(data) / 2, len(data) - 2} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Errorf("decoded snapshot with byte %d corrupted", off)
		}
	}
	// Trailing garbage changes the container length.
	if _, err := Decode(append(append([]byte(nil), data...), 0xee)); err == nil {
		t.Error("decoded snapshot with trailing garbage")
	}
	// A version-1 container, which also carried interpreter-tier
	// state, is refused by its header alone.
	v1 := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(v1[8:], 1)
	if _, err := Decode(v1); err == nil || !strings.Contains(err.Error(), "unsupported format version 1") {
		t.Errorf("decoding a version-1 container: err = %v, want unsupported format version 1", err)
	}
}

func FuzzSnapshotDecode(f *testing.F) {
	s, err := core.BuildSystem(core.GenOptions{}, nil, core.Source{Name: "snap.mvc", Text: testSrc})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.Machine.CallNamed("spin", 50); err != nil {
		f.Fatal(err)
	}
	snap, err := Capture(s.Machine, s.RT)
	if err != nil {
		f.Fatal(err)
	}
	valid := snap.Encode()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("MVSNAP01"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode must never panic, and anything it accepts must be
		// canonical: re-encoding reproduces the input byte-for-byte.
		got, err := Decode(data)
		if err != nil {
			return
		}
		if !bytes.Equal(got.Encode(), data) {
			t.Fatal("accepted a non-canonical encoding")
		}
		// Importing accepted CPU states may refuse them (a short or
		// repeated icache line) but must never panic.
		for _, cs := range got.CPUs {
			_ = cpu.New(s.Machine.Mem, cpu.DefaultConfig()).ImportState(cs)
		}
	})
}

// TestCaptureMidCommitNotQuiesced drives a real mid-commit instant —
// a poke-step fault point hands control to the harness between two
// phases of the breakpoint protocol, while the commit transaction is
// open — and pins that Capture fails with the typed, retryable
// ErrNotQuiesced, and that the capture succeeds once the commit
// finishes.
func TestCaptureMidCommitNotQuiesced(t *testing.T) {
	a, _ := buildPair(t)
	a.rt.SetCommitOptions(core.CommitOptions{Mode: core.ModeTextPoke})
	plan := faultinject.Exact(faultinject.Point{Kind: faultinject.KindPokeStep, Op: 0})
	var midErr error
	var fired int
	plan.OnPokeStep = func(phase int, addr, n uint64) {
		if fired == 0 {
			_, midErr = Capture(a.m, a.rt)
		}
		fired++
	}
	plan.Attach(a.m)
	defer faultinject.Detach(a.m)

	a.setSwitch(t, "mode", 1)
	if _, err := a.rt.Commit(); err != nil {
		t.Fatal(err)
	}
	if fired == 0 {
		t.Fatal("poke-step point never fired; commit did not go through the breakpoint protocol")
	}
	if !errors.Is(midErr, ErrNotQuiesced) {
		t.Fatalf("mid-commit Capture = %v, want errors.Is ErrNotQuiesced", midErr)
	}
	if _, err := Capture(a.m, a.rt); err != nil {
		t.Fatalf("post-commit Capture = %v, want success once quiesced", err)
	}
}
