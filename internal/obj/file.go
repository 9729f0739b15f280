package obj

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// objMagic identifies serialized object files.
var objMagic = [8]byte{'M', 'V', 'O', 'B', 'J', '0', '0', '1'}

type writer struct {
	w   *bufio.Writer
	err error
}

func (w *writer) bytes(b []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(b)
}

func (w *writer) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	w.bytes(buf[:])
}

func (w *writer) str(s string) {
	w.u64(uint64(len(s)))
	w.bytes([]byte(s))
}

func (w *writer) blob(b []byte) {
	w.u64(uint64(len(b)))
	w.bytes(b)
}

type reader struct {
	r   *bufio.Reader
	err error
}

func (r *reader) bytes(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > 1<<30 {
		r.err = fmt.Errorf("obj: implausible length %d", n)
		return nil
	}
	// The buffer grows only as bytes arrive, so a corrupt length
	// costs no more memory than the input holds.
	var buf bytes.Buffer
	_, r.err = io.CopyN(&buf, r.r, int64(n))
	return buf.Bytes()
}

func (r *reader) u64() uint64 {
	var b [8]byte
	if r.err == nil {
		_, r.err = io.ReadFull(r.r, b[:])
	}
	return binary.LittleEndian.Uint64(b[:])
}

func (r *reader) str() string { return string(r.bytes(r.u64())) }

func (r *reader) blob() []byte { return r.bytes(r.u64()) }

// Write serializes the object to w.
func (o *Object) Write(out io.Writer) error {
	w := &writer{w: bufio.NewWriter(out)}
	w.bytes(objMagic[:])
	w.str(o.Name)
	w.u64(uint64(len(o.Sections)))
	for _, s := range o.Sections {
		w.str(s.Name)
		w.u64(s.Size)
		w.u64(s.Align)
		w.u64(uint64(s.Flags))
		w.blob(s.Data)
	}
	w.u64(uint64(len(o.Symbols)))
	for _, s := range o.Symbols {
		w.str(s.Name)
		w.str(s.Section)
		w.u64(s.Offset)
		w.u64(s.Size)
		if s.Global {
			w.u64(1)
		} else {
			w.u64(0)
		}
	}
	w.u64(uint64(len(o.Relocs)))
	for _, r := range o.Relocs {
		w.str(r.Section)
		w.u64(r.Offset)
		w.u64(uint64(r.Type))
		w.str(r.Symbol)
		w.u64(uint64(r.Addend))
	}
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Read deserializes an object from in.
func Read(in io.Reader) (*Object, error) {
	r := &reader{r: bufio.NewReader(in)}
	magic := r.bytes(8)
	if r.err != nil {
		return nil, r.err
	}
	if string(magic) != string(objMagic[:]) {
		return nil, fmt.Errorf("obj: bad magic %q", magic)
	}
	o := New(r.str())
	nsec := r.u64()
	for i := uint64(0); i < nsec && r.err == nil; i++ {
		s := &Section{}
		s.Name = r.str()
		s.Size = r.u64()
		s.Align = r.u64()
		s.Flags = SectionFlags(r.u64())
		s.Data = r.blob()
		o.Sections = append(o.Sections, s)
	}
	nsym := r.u64()
	for i := uint64(0); i < nsym && r.err == nil; i++ {
		var s Symbol
		s.Name = r.str()
		s.Section = r.str()
		s.Offset = r.u64()
		s.Size = r.u64()
		s.Global = r.u64() != 0
		o.Symbols = append(o.Symbols, s)
	}
	nrel := r.u64()
	for i := uint64(0); i < nrel && r.err == nil; i++ {
		var rel Reloc
		rel.Section = r.str()
		rel.Offset = r.u64()
		rel.Type = RelocType(r.u64())
		rel.Symbol = r.str()
		rel.Addend = int64(r.u64())
		o.Relocs = append(o.Relocs, rel)
	}
	if r.err != nil {
		return nil, r.err
	}
	return o, o.Validate()
}
