// The shared decoded-code store.
//
// Everything derived on an icache line — predecoded instructions
// (decodecache.go) and superblocks (superblock.go) — is a pure function
// of the line's page number and its byte snapshot. Two CPUs that hold
// the same bytes for the same page therefore derive exactly the same
// entries, and there is no reason to decode them twice. Code is the
// store that makes them share: a content-addressed map from
// (page number, bytes) to the derived line state, so each distinct
// line is decoded and chained into blocks once per store rather than
// once per CPU, per restore and per post-flush refill. This is the
// decode-caching idea of Wong et al., "Faster Variational Execution
// with Transparent Bytecode Transformation", taken from one CPU to
// every CPU that shares a store.
//
// The page number is part of the key because block entries hold
// absolute pcs: identical bytes on two pages decode to the same
// instructions but chain into different blocks.
//
// A CPU's icache line keeps only what differs between CPUs (the page
// write-version at fill time) and a pointer to the shared lineCode.
// FlushICache drops that per-CPU record, never the shared state, so a
// refill of unchanged bytes finds its decodes and blocks ready; a
// refill of patched bytes is a different key and builds afresh. The
// store is bounded by maxCodeLines and cleared wholesale when full:
// lines CPUs still hold keep their pointer and stay valid, because
// nothing derived ever changes once built except by adding entries.
//
// A Code is not safe for concurrent use — the same contract as
// mem.Memory. Every CPU sharing one must run on one goroutine: a
// machine's SMP threads do, and so do the machines of one fleet shard.

package cpu

import (
	"bytes"
	"hash/maphash"

	"repro/internal/isa"
	"repro/internal/mem"
)

// maxCodeLines bounds how many lines a Code holds before it clears.
// A fleet shard holds a handful of distinct text pages; the bound only
// stops a long-lived store from pinning every page version a patch
// storm ever produced (~12 KiB each).
const maxCodeLines = 512

// codeSeed hashes line bytes for every store. Hash values never leave
// the process and a hit is always confirmed on the bytes, so the
// per-process seed cannot change any result.
var codeSeed = maphash.MakeSeed()

// Code is a store of decoded icache lines shared by the CPUs it is
// handed to (SetCode). The zero value is an empty store ready for use:
// its map is allocated on the first fill and its block-building
// buffer on the first build. A Code is not safe for concurrent use.
type Code struct {
	lines map[uint64]*lineCode    // hash of (pn, bytes) -> line
	chain *[maxBlockInsts]sbEntry // a block under construction (buildBlock)
}

// NewCode returns an empty store.
func NewCode() *Code { return &Code{} }

// scratch returns the block-building buffer, allocating it on the
// first build.
func (k *Code) scratch() []sbEntry {
	if k.chain == nil {
		k.chain = new([maxBlockInsts]sbEntry)
	}
	return k.chain[:0]
}

// intern returns the store's line for page pn holding b, adding one
// on a miss. A new line adopts b when adopt is set (b is an immutable
// snapshot, as imported states are) and copies it otherwise (b is a
// view of live memory).
func (k *Code) intern(pn uint64, b []byte, adopt bool) *lineCode {
	key := maphash.Bytes(codeSeed, b) ^ pn*0x9e3779b97f4a7c15
	if lc := k.lines[key]; lc != nil && lc.pn == pn && bytes.Equal(lc.bytes, b) {
		return lc
	}
	if !adopt {
		b = bytes.Clone(b)
	}
	lc := &lineCode{pn: pn, bytes: b}
	switch {
	case k.lines == nil:
		k.lines = make(map[uint64]*lineCode)
	case len(k.lines) >= maxCodeLines:
		clear(k.lines)
	}
	// A hash collision replaces the previous line; CPUs holding it keep
	// it, only the store forgets it.
	k.lines[key] = lc
	return lc
}

// lineCode is the shared, derived state of one (page, bytes) line.
type lineCode struct {
	pn uint64
	// bytes is the snapshot of the page at fill time. It is immutable:
	// exported States and imported lines share it instead of copying.
	bytes []byte

	// ents holds the derived caches for the offsets actually executed
	// (decodecache.go, superblock.go), densely, in first-use order.
	// They derive only from pn and bytes. nsb counts real
	// (non-sentinel) blocks so FlushICache can account invalidations
	// without rescanning.
	ents []lineEnt
	nsb  int

	// idx maps an in-page offset to 1 + its index in ents; 0 means
	// nothing is cached there. It is pointer-free and the last field,
	// so the garbage collector never scans it.
	idx [mem.PageSize]uint16
}

// lineEnt is the cached state of one in-page offset.
type lineEnt struct {
	in isa.Inst    // predecoded instruction; Len == 0 = not decoded
	sb *superblock // block headed here, the sbReject sentinel, or nil
}

// ent returns the entry for in-page offset off, appending an empty one
// on first use. The pointer is valid until the next ent call.
func (l *lineCode) ent(off uint64) *lineEnt {
	i := l.idx[off]
	if i == 0 {
		l.ents = append(l.ents, lineEnt{})
		i = uint16(len(l.ents))
		l.idx[off] = i
	}
	return &l.ents[i-1]
}

// Code returns the store this CPU's icache lines are interned in,
// creating a private one on first use.
func (c *CPU) Code() *Code {
	if c.code == nil {
		c.code = NewCode()
	}
	return c.code
}

// SetCode makes this CPU intern its future line fills and imports in
// k. Lines it already holds keep their decoded state. Every CPU
// sharing k must run on the goroutine that owns k.
func (c *CPU) SetCode(k *Code) { c.code = k }
