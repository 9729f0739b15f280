package link

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"testing"

	"repro/internal/mem"
)

// sumImage is a hand-built image whose identity hash is pinned: Sum is
// embedded in every snapshot payload, so its value must never move.
func sumImage() *Image {
	big := make([]byte, 5000)
	for i := range big {
		big[i] = byte(i * 7)
	}
	return &Image{
		Entry:    0x400010,
		HaltAddr: 0x400000,
		Segments: []Segment{
			{Addr: 0x400000, Data: []byte{0xf4, 1, 2, 3}, Prot: mem.RX},
			{Addr: 0x402000, Data: big, Prot: mem.RW},
			{Addr: 0x404000, Data: nil, Prot: mem.Read},
		},
	}
}

// formulaSum is the image-identity formula written out longhand: the
// whole serialization built in one buffer, then hashed.
func formulaSum(img *Image) [32]byte {
	le := binary.LittleEndian
	b := le.AppendUint64(nil, img.Entry)
	b = le.AppendUint64(b, img.HaltAddr)
	b = le.AppendUint32(b, uint32(len(img.Segments)))
	for _, seg := range img.Segments {
		b = le.AppendUint64(b, seg.Addr)
		b = append(b, uint8(seg.Prot))
		b = le.AppendUint32(b, uint32(len(seg.Data)))
		b = append(b, seg.Data...)
	}
	return sha256.Sum256(b)
}

func TestImageSumPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		img  *Image
		want string
	}{
		{"segments", sumImage(), "92f3286e8096b84fe15b379307665f465f0e69fe39041a15311163b139050ac6"},
		{"empty", &Image{}, "de47c9b27eb8d300dbb5f2c353e632c393262cf06340c4fa7f1b40c4cbd36f90"},
	} {
		sum := tc.img.Sum()
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: Sum() = %s, want %s", tc.name, got, tc.want)
		}
		if sum != formulaSum(tc.img) {
			t.Errorf("%s: Sum() disagrees with the longhand formula", tc.name)
		}
	}

	img, err := Link(buildCaller(), buildCallee())
	if err != nil {
		t.Fatal(err)
	}
	if img.Sum() != formulaSum(img) {
		t.Error("linked image: Sum() disagrees with the longhand formula")
	}
}

// TestImageSumComputedOnce: the hash is memoized per image, so later
// calls neither hash nor allocate, and concurrent first calls agree.
func TestImageSumComputedOnce(t *testing.T) {
	img := sumImage()
	want := formulaSum(img)
	var wg sync.WaitGroup
	sums := make([][32]byte, 4)
	for i := range sums {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i] = img.Sum()
		}(i)
	}
	wg.Wait()
	for i, s := range sums {
		if s != want {
			t.Fatalf("goroutine %d: Sum() = %x, want %x", i, s, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = img.Sum() }); n != 0 {
		t.Fatalf("memoized Sum allocates %v times per call, want 0", n)
	}
}
