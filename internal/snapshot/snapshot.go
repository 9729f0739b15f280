// Package snapshot serializes complete simulated-machine state —
// memory pages with protections and write-versions, per-CPU
// architectural and microarchitectural state (including the byte
// snapshots of resident icache lines), the console, and the runtime's
// binding/deferred/span state — into a versioned, CRC-protected binary
// container.
//
// Only simulated state is serialized. Host-side interpreter state —
// the decoded instructions and superblocks cached on icache lines,
// whether a CPU runs superblocks, and the tier counters (cpu.TierStats)
// — stays with the machine that built it, so the digest of a machine
// instant is the same whichever tier produced it.
//
// The format is deterministic: capturing the same simulated instant
// twice yields byte-identical files, so Digest (SHA-256 of the
// payload) identifies a machine state. Restoring a snapshot and
// running to completion retires bit-identical cycles, simulated
// statistics and state reports as the uninterrupted run — the property
// the checkpoint/restore difftests pin and the time-travel debugger
// (cmd/mvdbg) is built on.
package snapshot

import (
	"crypto/sha256"
	"fmt"
	"os"
	"reflect"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/link"
	"repro/internal/machine"
	"repro/internal/mem"
)

// Snapshot is the complete state of a simulated machine at one
// instant, plus the identity of the image it was loaded from.
type Snapshot struct {
	// SimCycles is the primary CPU's cycle counter at capture — the
	// simulated instant this snapshot names.
	SimCycles uint64

	// ImageSum ties the snapshot to the loaded image (entry point,
	// halt stub, and every segment's address, protection and bytes).
	// Apply refuses a snapshot taken from a different image.
	ImageSum [32]byte

	Console  []byte
	Pages    []mem.PageState
	MemStats mem.Stats
	CPUs     []cpu.State // primary first, AddCPU threads in creation order

	// Runtime is nil when the snapshot was captured without a
	// multiverse runtime attached.
	Runtime *core.RuntimeState
}

// ImageSum computes the image-identity hash Capture embeds and Apply
// checks.
func ImageSum(img *link.Image) [32]byte {
	h := sha256.New()
	var w writer
	w.u64(img.Entry)
	w.u64(img.HaltAddr)
	w.u32(uint32(len(img.Segments)))
	for _, seg := range img.Segments {
		w.u64(seg.Addr)
		w.u8(uint8(seg.Prot))
		w.bytes(seg.Data)
	}
	h.Write(w.b)
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// ErrNotQuiesced is the typed, retryable error Capture returns when
// the runtime is inside an open commit/revert transaction. Commits
// are atomic — there is no observable mid-commit state — but the
// condition clears as soon as the operation finishes, so supervisors
// should match it with errors.Is and retry the capture rather than
// treat the machine as corrupt.
var ErrNotQuiesced = core.ErrNotQuiesced

// Capture exports the machine's complete state. rt may be nil when no
// runtime is attached; when present it must be commit-quiesced —
// capturing inside an open transaction fails with ErrNotQuiesced.
//
// Memory pages are not copied: Pages alias the machine's pages
// copy-on-write (mem.ExportPages), so a capture costs one slice header
// per page and the machine copies a page only when it next writes it.
// The snapshot's page data is read-only; Apply shares it the same way
// with the machine it restores, so one snapshot can be applied any
// number of times.
func Capture(m *machine.Machine, rt *core.Runtime) (*Snapshot, error) {
	s := &Snapshot{
		SimCycles: m.CPU.Cycles(),
		ImageSum:  ImageSum(m.Image),
		Console:   append([]byte(nil), m.Console()...),
		Pages:     m.Mem.ExportPages(),
		MemStats:  m.Mem.Stats,
	}
	for _, c := range m.CPUs() {
		s.CPUs = append(s.CPUs, c.ExportState())
	}
	if rt != nil {
		rs, err := rt.ExportState()
		if err != nil {
			return nil, err
		}
		s.Runtime = &rs
	}
	return s, nil
}

// Apply restores a snapshot onto a machine freshly constructed from
// the same image (and, when the snapshot carries runtime state, a
// runtime freshly constructed against that machine). Secondary
// hardware threads are added as needed; the address space is replaced
// wholesale; the runtime's binding state is imported last so its
// per-site byte windows are re-read from the restored memory.
func Apply(s *Snapshot, m *machine.Machine, rt *core.Runtime) error {
	if got := ImageSum(m.Image); got != s.ImageSum {
		return fmt.Errorf("snapshot: taken from a different image (segment/entry hash mismatch)")
	}
	if len(s.CPUs) == 0 {
		return fmt.Errorf("snapshot: no CPU state")
	}
	if (s.Runtime != nil) != (rt != nil) {
		if rt == nil {
			return fmt.Errorf("snapshot: carries runtime state but no runtime was supplied")
		}
		return fmt.Errorf("snapshot: carries no runtime state but a runtime was supplied")
	}
	for len(m.CPUs()) < len(s.CPUs) {
		if _, err := m.AddCPU(); err != nil {
			return fmt.Errorf("snapshot: adding hardware thread: %w", err)
		}
	}
	if len(m.CPUs()) != len(s.CPUs) {
		return fmt.Errorf("snapshot: machine has %d hardware threads, snapshot %d", len(m.CPUs()), len(s.CPUs))
	}
	if err := m.Mem.ImportPages(s.Pages); err != nil {
		return err
	}
	m.Mem.SetStats(s.MemStats)
	for i, c := range m.CPUs() {
		if err := c.ImportState(s.CPUs[i]); err != nil {
			return fmt.Errorf("snapshot: cpu %d: %w", i, err)
		}
	}
	m.RestoreConsole(s.Console)
	if rt != nil {
		if err := rt.ImportState(*s.Runtime); err != nil {
			return err
		}
	}
	return nil
}

// Encode serializes the snapshot into the versioned container. It
// sizes the payload first and then writes header, payload and CRC into
// one buffer of exactly the final length: one allocation, no regrowth
// and no copy while sealing.
func (s *Snapshot) Encode() []byte {
	size := writer{sizing: true}
	s.putBody(&size)
	w := writer{b: make([]byte, headerLen, headerLen+size.n+4)}
	s.putBody(&w)
	return seal(w.b)
}

// putBody writes the payload: everything between header and CRC.
func (s *Snapshot) putBody(w *writer) {
	w.u64(s.SimCycles)
	w.raw(s.ImageSum[:])
	w.bytes(s.Console)
	w.u32(uint32(len(s.Pages)))
	for i := range s.Pages {
		p := &s.Pages[i]
		w.u64(p.PN)
		w.u8(uint8(p.Prot))
		w.u64(p.Version)
		w.bytes(p.Data)
	}
	putCounters(w, &s.MemStats)
	w.u32(uint32(len(s.CPUs)))
	for i := range s.CPUs {
		putCPU(w, &s.CPUs[i])
	}
	if s.Runtime == nil {
		w.u8(0)
	} else {
		w.u8(1)
		putRuntime(w, s.Runtime)
	}
}

// Decode validates the container (magic, version, length, CRC) and
// parses the payload. Corrupt or truncated input yields an error,
// never a panic.
func Decode(data []byte) (*Snapshot, error) {
	payload, err := unseal(data)
	if err != nil {
		return nil, err
	}
	r := &reader{b: payload}
	s := &Snapshot{}
	s.SimCycles = r.u64()
	copy(s.ImageSum[:], r.take(32))
	s.Console = r.bytes()
	for i, n := 0, r.count(8+1+8+4); i < n && r.err == nil; i++ {
		p := mem.PageState{PN: r.u64(), Prot: mem.Prot(r.u8()), Version: r.u64(), Data: r.bytes()}
		s.Pages = append(s.Pages, p)
	}
	getCounters(r, &s.MemStats)
	for i, n := 0, r.count(8); i < n && r.err == nil; i++ {
		var c cpu.State
		getCPU(r, &c)
		s.CPUs = append(s.CPUs, c)
	}
	if r.u8() != 0 {
		var rs core.RuntimeState
		getRuntime(r, &rs)
		s.Runtime = &rs
	}
	if r.err == nil && r.off != len(r.b) {
		r.fail("%d trailing bytes after snapshot body", len(r.b)-r.off)
	}
	if r.err != nil {
		return nil, r.err
	}
	return s, nil
}

func putCPU(w *writer, s *cpu.State) {
	w.u32(uint32(len(s.Regs)))
	for _, v := range s.Regs {
		w.u64(v)
	}
	w.u64(s.PC)
	w.u64(s.Cycles)
	putBool(w, s.Halted)
	w.u64(uint64(s.CmpA))
	w.u64(uint64(s.CmpB))
	w.u32(uint32(len(s.BTB)))
	for _, e := range s.BTB {
		putBool(w, e.Valid)
		w.u64(e.Tag)
		w.u8(e.Counter)
		w.u64(e.Target)
	}
	w.u32(uint32(len(s.RAS)))
	for _, v := range s.RAS {
		w.u64(v)
	}
	w.u64(uint64(s.RASN))
	w.u8(s.Mode)
	putBool(w, s.IntrOn)
	w.u64(s.IntrPeriod)
	w.u64(s.IntrCost)
	w.u64(s.NextIntr)
	w.u32(uint32(len(s.ICache)))
	for i := range s.ICache {
		ls := &s.ICache[i]
		w.u64(ls.PN)
		w.u64(ls.Version)
		w.bytes(ls.Bytes)
	}
	putCounters(w, &s.Stats)
}

func getCPU(r *reader, s *cpu.State) {
	if n := r.count(8); n != len(s.Regs) && r.err == nil {
		r.fail("cpu state has %d registers, want %d", n, len(s.Regs))
	}
	if r.err != nil {
		return
	}
	for i := range s.Regs {
		s.Regs[i] = r.u64()
	}
	s.PC = r.u64()
	s.Cycles = r.u64()
	s.Halted = getBool(r)
	s.CmpA = int64(r.u64())
	s.CmpB = int64(r.u64())
	for i, n := 0, r.count(1+8+1+8); i < n && r.err == nil; i++ {
		s.BTB = append(s.BTB, cpu.BTBState{Valid: getBool(r), Tag: r.u64(), Counter: r.u8(), Target: r.u64()})
	}
	for i, n := 0, r.count(8); i < n && r.err == nil; i++ {
		s.RAS = append(s.RAS, r.u64())
	}
	s.RASN = int(r.u64())
	s.Mode = r.u8()
	s.IntrOn = getBool(r)
	s.IntrPeriod = r.u64()
	s.IntrCost = r.u64()
	s.NextIntr = r.u64()
	for i, n := 0, r.count(8+8+4); i < n && r.err == nil; i++ {
		s.ICache = append(s.ICache, cpu.ICLineState{PN: r.u64(), Version: r.u64(), Bytes: r.bytes()})
	}
	getCounters(r, &s.Stats)
}

func putRuntime(w *writer, s *core.RuntimeState) {
	w.u32(uint32(len(s.Funcs)))
	for i := range s.Funcs {
		f := &s.Funcs[i]
		w.str(f.Name)
		w.u64(f.Generic)
		w.u64(f.CommittedAddr)
		putBool(w, f.PrologueOn)
		w.bytes(f.SavedPrologue[:])
	}
	w.u32(uint32(len(s.FnPtrs)))
	for _, p := range s.FnPtrs {
		w.u64(p.Addr)
		putBool(w, p.Committed)
		w.u64(p.Target)
	}
	w.u32(uint32(len(s.Deferred)))
	for _, d := range s.Deferred {
		w.str(d.Name)
		w.u8(d.Kind)
	}
	putCounters(w, &s.Stats)
	w.u64(s.OpSeq)
}

func getRuntime(r *reader, s *core.RuntimeState) {
	for i, n := 0, r.count(4+8+8+1+4); i < n && r.err == nil; i++ {
		f := core.FuncBindingState{Name: r.str(), Generic: r.u64(), CommittedAddr: r.u64()}
		f.PrologueOn = getBool(r)
		saved := r.bytes()
		if r.err == nil && len(saved) != len(f.SavedPrologue) {
			r.fail("saved prologue holds %d bytes, want %d", len(saved), len(f.SavedPrologue))
		}
		copy(f.SavedPrologue[:], saved)
		s.Funcs = append(s.Funcs, f)
	}
	for i, n := 0, r.count(8+1+8); i < n && r.err == nil; i++ {
		s.FnPtrs = append(s.FnPtrs, core.FnPtrBindingState{Addr: r.u64(), Committed: getBool(r), Target: r.u64()})
	}
	for i, n := 0, r.count(4+1); i < n && r.err == nil; i++ {
		s.Deferred = append(s.Deferred, core.DeferredOpState{Name: r.str(), Kind: r.u8()})
	}
	getCounters(r, &s.Stats)
	s.OpSeq = r.u64()
}

func putBool(w *writer, v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func getBool(r *reader) bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("boolean byte out of range at offset %d", r.off-1)
		return false
	}
}

// putCounters serializes a flat statistics struct (all int or uint64
// fields), passed by pointer, by reflection, field-count-prefixed: a
// counter added to cpu.Stats, mem.Stats or core.RuntimeStats is picked
// up automatically, and a reader built for a different field count
// reports format drift instead of silently misparsing.
func putCounters(w *writer, v any) {
	rv := reflect.ValueOf(v).Elem()
	w.u32(uint32(rv.NumField()))
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			w.u64(f.Uint())
		case reflect.Int:
			w.u64(uint64(f.Int()))
		default:
			panic(fmt.Sprintf("snapshot: %s.%s is %s, counters must be int or uint64",
				rv.Type(), rv.Type().Field(i).Name, f.Kind()))
		}
	}
}

func getCounters(r *reader, out any) {
	rv := reflect.ValueOf(out).Elem()
	if n := r.count(8); n != rv.NumField() && r.err == nil {
		r.fail("%s block has %d counters, want %d (format drift)", rv.Type(), n, rv.NumField())
	}
	if r.err != nil {
		return
	}
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		v := r.u64()
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(v)
		case reflect.Int:
			f.SetInt(int64(v))
		}
	}
}

// WriteFile encodes the snapshot to path.
func WriteFile(path string, s *Snapshot) error {
	return os.WriteFile(path, s.Encode(), 0o644)
}

// ReadFile reads and decodes a snapshot file.
func ReadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
