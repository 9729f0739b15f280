package snapshot

import (
	"runtime"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
)

// TestDigestMatchesEncode: the streaming (*Snapshot).Digest hashes
// exactly the payload Encode writes, so it names the same machine
// instant as Digest over the encoded bytes.
func TestDigestMatchesEncode(t *testing.T) {
	a, golden := warmSnapshot(t)

	// A second hardware thread that has run code of its own, and an
	// extra mapping torn down and re-made elsewhere.
	c2, err := a.m.AddCPU()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.m.StartCall(c2, "spin", 40); err != nil {
		t.Fatal(err)
	}
	if _, err := a.m.Interleave([]*cpu.CPU{c2}, []int{7}, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if err := a.m.Mem.Map(1<<40, 4*mem.PageSize, mem.RW); err != nil {
		t.Fatal(err)
	}
	if err := a.m.Mem.Unmap(1<<40+mem.PageSize, mem.PageSize); err != nil {
		t.Fatal(err)
	}
	multi, err := Capture(a.m, a.rt)
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.CPUs) != 2 {
		t.Fatalf("multi-CPU capture holds %d CPUs, want 2", len(multi.CPUs))
	}

	bare, err := Capture(a.m, nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		s    *Snapshot
	}{
		{"golden", golden},
		{"multi-cpu", multi},
		{"no-runtime", bare},
	} {
		want, err := Digest(tc.s.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if got := tc.s.Digest(); got != want {
			t.Errorf("%s: Digest() = %s, Digest(Encode()) = %s", tc.name, got, want)
		}
	}
}

// TestDigestAllocatesLittle: Digest streams the ~290 KB golden payload
// through a small staging buffer instead of materializing it.
func TestDigestAllocatesLittle(t *testing.T) {
	_, snap := warmSnapshot(t)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_ = snap.Digest()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 16<<10 {
		t.Fatalf("Digest allocates %d bytes per call for a %d-byte payload; want under 16 KB",
			per, goldenEncodeLen)
	}
}

// BenchmarkSnapshotDigest compares the two ways to digest the golden
// snapshot: encoding the container and hashing its payload, and
// streaming the payload into the hash.
func BenchmarkSnapshotDigest(b *testing.B) {
	_, snap := warmSnapshot(b)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Digest(snap.Encode()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = snap.Digest()
		}
	})
}
