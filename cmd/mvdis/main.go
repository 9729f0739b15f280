// Command mvdis inspects compiled artifacts: it disassembles objects
// (.mvo) and images (.img), lists sections and symbols, and decodes
// the multiverse descriptor sections of an image.
//
//	mvdis file
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/link"
	"repro/internal/machine"
	"repro/internal/obj"
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mvdis file")
		os.Exit(2)
	}
	if err := run(flag.Arg(0)); err != nil {
		fmt.Fprintf(os.Stderr, "mvdis: %v\n", err)
		os.Exit(1)
	}
}

func run(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if img, err := link.ReadImage(f); err == nil {
		return dumpImage(img)
	}
	if _, err := f.Seek(0, 0); err != nil {
		return err
	}
	o, err := obj.Read(f)
	if err != nil {
		return fmt.Errorf("not a valid image or object: %w", err)
	}
	return dumpObject(o)
}

func dumpObject(o *obj.Object) error {
	fmt.Printf("object %s\n\nsections:\n", o.Name)
	for _, s := range o.Sections {
		fmt.Printf("  %-24s %6d bytes  flags=%d\n", s.Name, s.ByteSize(), s.Flags)
	}
	fmt.Println("\nsymbols:")
	for _, s := range o.DefinedSymbols() {
		vis := "local "
		if s.Global {
			vis = "global"
		}
		fmt.Printf("  %s %-28s %s+%#x size=%d\n", vis, s.Name, s.Section, s.Offset, s.Size)
	}
	fmt.Printf("\nrelocations: %d\n", len(o.Relocs))
	for _, s := range o.Sections {
		if s.Name == obj.SecText {
			fmt.Println("\ndisassembly (.text, unrelocated):")
			fmt.Print(isa.Disassemble(s.Data, 0))
		}
	}
	return nil
}

func dumpImage(img *link.Image) error {
	fmt.Printf("image: entry=%#x halt=%#x\n\nsegments:\n", img.Entry, img.HaltAddr)
	for _, s := range img.Segments {
		fmt.Printf("  %#08x  %7d bytes  %s\n", s.Addr, len(s.Data), s.Prot)
	}
	fmt.Println("\nsections:")
	names := make([]string, 0, len(img.Sections))
	for n := range img.Sections {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		return img.Sections[names[i]].Addr < img.Sections[names[j]].Addr
	})
	for _, n := range names {
		r := img.Sections[n]
		fmt.Printf("  %-24s %#08x  %6d bytes\n", n, r.Addr, r.Size)
	}

	type namedSym struct {
		name string
		link.SymbolInfo
	}
	syms := make([]namedSym, 0, len(img.Symbols))
	for n, s := range img.Symbols {
		syms = append(syms, namedSym{n, s})
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i].Addr < syms[j].Addr })
	fmt.Println("\nsymbols:")
	for _, s := range syms {
		fmt.Printf("  %#08x  %-32s size=%d\n", s.Addr, s.name, s.Size)
	}

	// Decode descriptors by loading the image into a scratch machine.
	m, err := machine.New(img)
	if err != nil {
		return err
	}
	desc, err := core.DecodeDescriptors(img, core.Platform{M: m})
	if err != nil {
		return err
	}
	if len(desc.Vars)+len(desc.Funcs)+len(desc.Sites) > 0 {
		fmt.Println("\nmultiverse descriptors:")
		for _, v := range desc.Vars {
			kind := "int"
			if v.FnPtr {
				kind = "fnptr"
			}
			fmt.Printf("  var  %-20s @%#x width=%d signed=%v kind=%s\n", v.Name, v.Addr, v.Width, v.Signed, kind)
		}
		for _, fd := range desc.Funcs {
			fmt.Printf("  func %-20s generic=%#x size=%d variants=%d\n", fd.Name, fd.Generic, fd.Size, len(fd.Variants))
			for _, v := range fd.Variants {
				fmt.Printf("       variant @%#x size=%d guards=%v\n", v.Addr, v.Size, v.Guards)
			}
		}
		for _, s := range desc.Sites {
			fmt.Printf("  site %#x -> callee %#x\n", s.Addr, s.Callee)
		}
	}

	// Disassemble text with symbol annotations.
	fmt.Println("\ndisassembly (.text):")
	text := img.Segments[0]
	starts := make(map[uint64]string)
	for _, s := range syms {
		if s.Addr >= text.Addr && s.Addr < text.Addr+uint64(len(text.Data)) {
			starts[s.Addr] = s.name
		}
	}
	off := 0
	for off < len(text.Data) {
		addr := text.Addr + uint64(off)
		if name, ok := starts[addr]; ok {
			fmt.Printf("\n%s:\n", name)
		}
		in, err := isa.Decode(text.Data[off:])
		if err != nil {
			fmt.Printf("%#08x: .byte %#02x\n", addr, text.Data[off])
			off++
			continue
		}
		fmt.Printf("%#08x: %s\n", addr, in.Format(addr))
		off += in.Len
	}
	return nil
}
