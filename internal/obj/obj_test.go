package obj

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
)

func sampleObject() *Object {
	o := New("sample.c")
	text := o.Section(SecText)
	text.Data = []byte{0x10, 0x00, 1, 0, 0, 0, 0, 0, 0, 0, 0x52} // movi r0,1; ret
	data := o.Section(SecData)
	data.Data = []byte{42, 0, 0, 0}
	bss := o.Section(SecBSS)
	bss.Size = 128
	vars := o.Section(SecMVVars)
	vars.Data = make([]byte, 32)
	o.AddSymbol(Symbol{Name: "f", Section: SecText, Offset: 0, Size: 11, Global: true})
	o.AddSymbol(Symbol{Name: "g", Section: SecData, Offset: 0, Size: 4, Global: true})
	o.AddSymbol(Symbol{Name: "buf", Section: SecBSS, Offset: 0, Size: 128, Global: false})
	o.AddReloc(Reloc{Section: SecMVVars, Offset: 0, Type: RelocAbs64, Symbol: "g"})
	return o
}

func TestSectionCreatesWithConventionalFlags(t *testing.T) {
	o := New("t")
	if o.Section(SecText).Flags&SecFlagExec == 0 {
		t.Error(".text not executable")
	}
	if o.Section(SecData).Flags&SecFlagWrite == 0 {
		t.Error(".data not writable")
	}
	b := o.Section(SecBSS)
	if b.Flags&SecFlagNoBits == 0 || b.Flags&SecFlagWrite == 0 {
		t.Error(".bss flags wrong")
	}
	if o.Section(SecMVVars).Flags != 0 {
		t.Error("descriptor section should be read-only")
	}
	// Second lookup returns the same section.
	if o.Section(SecText) != o.Sections[0] {
		t.Error("Section did not return existing section")
	}
}

func TestValidateOK(t *testing.T) {
	if err := sampleObject().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBrokenObjects(t *testing.T) {
	cases := map[string]func(o *Object){
		"symbol in unknown section": func(o *Object) {
			o.AddSymbol(Symbol{Name: "x", Section: ".nope", Offset: 0})
		},
		"symbol beyond section": func(o *Object) {
			o.AddSymbol(Symbol{Name: "x", Section: SecData, Offset: 9999})
		},
		"reloc in unknown section": func(o *Object) {
			o.AddReloc(Reloc{Section: ".nope", Symbol: "g"})
		},
		"reloc overruns section": func(o *Object) {
			o.AddReloc(Reloc{Section: SecData, Offset: 2, Type: RelocAbs64, Symbol: "g"})
		},
		"reloc in NoBits section": func(o *Object) {
			o.AddReloc(Reloc{Section: SecBSS, Offset: 0, Type: RelocAbs64, Symbol: "g"})
		},
		"duplicate section": func(o *Object) {
			o.Sections = append(o.Sections, &Section{Name: SecText})
		},
		"NoBits with data": func(o *Object) {
			o.Section(SecBSS).Data = []byte{1}
		},
	}
	for name, breakIt := range cases {
		o := sampleObject()
		breakIt(o)
		if err := o.Validate(); err == nil {
			t.Errorf("%s: Validate passed", name)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	o := sampleObject()
	var buf bytes.Buffer
	if err := o.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != o.Name {
		t.Errorf("name = %q", got.Name)
	}
	if len(got.Sections) != len(o.Sections) {
		t.Fatalf("sections = %d, want %d", len(got.Sections), len(o.Sections))
	}
	for i := range o.Sections {
		if !reflect.DeepEqual(normalize(got.Sections[i]), normalize(o.Sections[i])) {
			t.Errorf("section %d differs: %+v vs %+v", i, got.Sections[i], o.Sections[i])
		}
	}
	if !reflect.DeepEqual(got.Symbols, o.Symbols) {
		t.Errorf("symbols differ")
	}
	if !reflect.DeepEqual(got.Relocs, o.Relocs) {
		t.Errorf("relocs differ")
	}
}

// normalize maps empty and nil Data to the same representation.
func normalize(s *Section) Section {
	c := *s
	if len(c.Data) == 0 {
		c.Data = nil
	}
	return c
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOTANOBJECT....."))); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	o := sampleObject()
	var buf bytes.Buffer
	if err := o.Write(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, n := range []int{0, 4, 8, len(full) / 2, len(full) - 1} {
		if _, err := Read(bytes.NewReader(full[:n])); err == nil {
			t.Errorf("truncation at %d accepted", n)
		}
	}
}

// TestReadTruncatedLengthAllocatesLittle: an object whose name
// declares 1 GiB but ends after the length must fail without
// allocating anything near the declared length.
func TestReadTruncatedLengthAllocatesLittle(t *testing.T) {
	in := binary.LittleEndian.AppendUint64(append([]byte(nil), objMagic[:]...), 1<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("accepted a name longer than the input")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("reading a %d-byte object allocated %d bytes", len(in), grew)
	}
}

func TestDefinedSymbolsSorted(t *testing.T) {
	o := sampleObject()
	o.AddSymbol(Symbol{Name: "aaa", Section: SecText, Offset: 1})
	o.AddSymbol(Symbol{Name: "zzz"}) // undefined, excluded
	defs := o.DefinedSymbols()
	for i := 1; i < len(defs); i++ {
		if defs[i-1].Name > defs[i].Name {
			t.Fatalf("not sorted: %q > %q", defs[i-1].Name, defs[i].Name)
		}
	}
	for _, d := range defs {
		if d.Section == "" {
			t.Errorf("undefined symbol %q in DefinedSymbols", d.Name)
		}
	}
}

func TestByteSize(t *testing.T) {
	s := &Section{Data: make([]byte, 10)}
	if s.ByteSize() != 10 {
		t.Error("data section size")
	}
	b := &Section{Flags: SecFlagNoBits, Size: 77}
	if b.ByteSize() != 77 {
		t.Error("nobits section size")
	}
}

func TestRelocTypeString(t *testing.T) {
	if RelocRel32.String() != "rel32" || RelocAbs64.String() != "abs64" {
		t.Error("reloc type strings")
	}
	if RelocType(9).String() == "" {
		t.Error("unknown reloc type string empty")
	}
}
