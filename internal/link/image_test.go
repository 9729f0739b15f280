package link

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
)

// TestReadImageTruncatedLengthAllocatesLittle: a 56-byte file whose
// one segment declares 1 GiB of data must fail without allocating
// anything near the declared length.
func TestReadImageTruncatedLengthAllocatesLittle(t *testing.T) {
	in := append([]byte(nil), imgMagic[:]...)
	for _, v := range []uint64{0x1000, 0x2000, 1, 0x400000, 5, 1 << 30} { // entry, halt, nseg, addr, prot, len
		in = binary.LittleEndian.AppendUint64(in, v)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadImage(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("accepted a segment longer than the input")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("reading a %d-byte image allocated %d bytes", len(in), grew)
	}
}

// FuzzReadImage: ReadImage never panics, and an image it accepts
// writes back and reads again to an equal image.
func FuzzReadImage(f *testing.F) {
	img, err := Link(buildCaller(), buildCallee())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := img.Write(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	for _, n := range []int{0, 8, 24, 40, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadImage(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := got.Write(&out); err != nil {
			t.Fatalf("writing an accepted image: %v", err)
		}
		again, err := ReadImage(&out)
		if err != nil {
			t.Fatalf("re-reading a written image: %v", err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("round trip diverged:\nread:    %+v\nre-read: %+v", got, again)
		}
	})
}
