package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/mem"
)

// The wire encoding of the warmed test machine (buildPair + warm),
// pinned so that a change to how Encode builds its buffer cannot
// silently change the bytes it produces. A deliberate format or
// compiler change that moves the encoding must update these together
// with Version where the format itself changed.
const (
	goldenEncodeLen    = 289911
	goldenEncodeSHA256 = "3f100ec9e165acbcbc0eea0f9ec63b9d36c8ce1e27a9191315d7e1f2a97c6612"
)

func warmSnapshot(t testing.TB) (*sys, *Snapshot) {
	t.Helper()
	a, _ := buildPair(t)
	a.warm(t)
	snap, err := Capture(a.m, a.rt)
	if err != nil {
		t.Fatal(err)
	}
	return a, snap
}

// TestEncodeGolden also checks that Encode sizes its buffer before
// writing: the container is built in place with no spare capacity.
func TestEncodeGolden(t *testing.T) {
	_, snap := warmSnapshot(t)
	enc := snap.Encode()
	sum := sha256.Sum256(enc)
	if got := hex.EncodeToString(sum[:]); len(enc) != goldenEncodeLen || got != goldenEncodeSHA256 {
		t.Fatalf("Encode() = %d bytes, sha256 %s; want %d bytes, sha256 %s",
			len(enc), got, goldenEncodeLen, goldenEncodeSHA256)
	}
	if cap(enc) != len(enc) {
		t.Fatalf("Encode() has len %d, cap %d; want an exactly sized buffer", len(enc), cap(enc))
	}
}

func TestEncodeAllocatesOnce(t *testing.T) {
	_, snap := warmSnapshot(t)
	if n := testing.AllocsPerRun(20, func() { _ = snap.Encode() }); n != 1 {
		t.Fatalf("Encode allocates %v times per call, want 1 (the output buffer)", n)
	}
}

// TestCaptureAllocsIndependentOfPages: Capture aliases memory pages
// copy-on-write, so mapping more pages must not add allocations — nor
// must unmapping some of them and mapping them again elsewhere, which
// reorders the address space's page list.
func TestCaptureAllocsIndependentOfPages(t *testing.T) {
	a, snap := warmSnapshot(t)
	capture := func() {
		if _, err := Capture(a.m, a.rt); err != nil {
			t.Fatal(err)
		}
	}
	base := testing.AllocsPerRun(10, capture)
	if base >= float64(len(snap.Pages)) {
		t.Errorf("Capture allocates %v times for %d pages; want fewer allocations than pages", base, len(snap.Pages))
	}
	const extra = 64
	if err := a.m.Mem.Map(1<<40, extra*mem.PageSize, mem.RW); err != nil {
		t.Fatal(err)
	}
	if more := testing.AllocsPerRun(10, capture); more != base {
		t.Fatalf("Capture allocates %v times with %d more pages mapped, %v before; want no per-page allocation",
			more, extra, base)
	}
	const moved = extra / 4
	if err := a.m.Mem.Unmap(1<<40, moved*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := a.m.Mem.Map(1<<30, moved*mem.PageSize, mem.RW); err != nil {
		t.Fatal(err)
	}
	if remapped := testing.AllocsPerRun(10, capture); remapped != base {
		t.Fatalf("Capture allocates %v times after Unmap+Map of %d pages, %v before; want no per-page allocation",
			remapped, moved, base)
	}
	snap, err := Capture(a.m, a.rt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(snap.Pages); i++ {
		if snap.Pages[i-1].PN >= snap.Pages[i].PN {
			t.Fatalf("captured pages out of order after Unmap+Map: %#x then %#x",
				snap.Pages[i-1].PN, snap.Pages[i].PN)
		}
	}
}
