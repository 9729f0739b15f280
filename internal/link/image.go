package link

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"repro/internal/mem"
)

// imgMagic identifies serialized image files.
var imgMagic = [8]byte{'M', 'V', 'I', 'M', 'G', '0', '0', '1'}

// Write serializes the image to out.
func (img *Image) Write(out io.Writer) error {
	w := bufio.NewWriter(out)
	var err error
	put := func(b []byte) {
		if err == nil {
			_, err = w.Write(b)
		}
	}
	u64 := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		put(buf[:])
	}
	str := func(s string) { u64(uint64(len(s))); put([]byte(s)) }

	put(imgMagic[:])
	u64(img.Entry)
	u64(img.HaltAddr)
	u64(uint64(len(img.Segments)))
	for _, s := range img.Segments {
		u64(s.Addr)
		u64(uint64(s.Prot))
		u64(uint64(len(s.Data)))
		put(s.Data)
	}
	// Maps are written in sorted order for deterministic output.
	symNames := make([]string, 0, len(img.Symbols))
	for n := range img.Symbols {
		symNames = append(symNames, n)
	}
	sort.Strings(symNames)
	u64(uint64(len(symNames)))
	for _, n := range symNames {
		str(n)
		u64(img.Symbols[n].Addr)
		u64(img.Symbols[n].Size)
	}
	secNames := make([]string, 0, len(img.Sections))
	for n := range img.Sections {
		secNames = append(secNames, n)
	}
	sort.Strings(secNames)
	u64(uint64(len(secNames)))
	for _, n := range secNames {
		str(n)
		u64(img.Sections[n].Addr)
		u64(img.Sections[n].Size)
	}
	if err != nil {
		return err
	}
	return w.Flush()
}

// ReadImage deserializes an image from in.
func ReadImage(in io.Reader) (*Image, error) {
	r := bufio.NewReader(in)
	var err error
	get := func(n uint64) []byte {
		if err != nil {
			return nil
		}
		if n > 1<<30 {
			err = fmt.Errorf("link: implausible length %d", n)
			return nil
		}
		// The buffer grows only as bytes arrive, so a corrupt
		// length costs no more memory than the input holds.
		var buf bytes.Buffer
		_, err = io.CopyN(&buf, r, int64(n))
		return buf.Bytes()
	}
	u64 := func() uint64 {
		var b [8]byte
		if err == nil {
			_, err = io.ReadFull(r, b[:])
		}
		return binary.LittleEndian.Uint64(b[:])
	}
	str := func() string { return string(get(u64())) }

	magic := get(8)
	if err != nil {
		return nil, err
	}
	if string(magic) != string(imgMagic[:]) {
		return nil, fmt.Errorf("link: bad image magic %q", magic)
	}
	img := &Image{
		Symbols:  make(map[string]SymbolInfo),
		Sections: make(map[string]Range),
	}
	img.Entry = u64()
	img.HaltAddr = u64()
	nseg := u64()
	for i := uint64(0); i < nseg && err == nil; i++ {
		var s Segment
		s.Addr = u64()
		s.Prot = mem.Prot(u64())
		s.Data = get(u64())
		img.Segments = append(img.Segments, s)
	}
	nsym := u64()
	for i := uint64(0); i < nsym && err == nil; i++ {
		n := str()
		img.Symbols[n] = SymbolInfo{Addr: u64(), Size: u64()}
	}
	nsec := u64()
	for i := uint64(0); i < nsec && err == nil; i++ {
		n := str()
		img.Sections[n] = Range{Addr: u64(), Size: u64()}
	}
	if err != nil {
		return nil, err
	}
	return img, nil
}
