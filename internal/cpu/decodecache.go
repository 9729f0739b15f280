// The predecoded-instruction cache.
//
// Before this cache existed, Step re-fetched a 10-byte window from the
// icache line snapshot and re-ran isa.Decode on every single
// instruction, which made decoding the hottest host-side path of every
// experiment (cf. Wong et al., "Faster Variational Execution with
// Transparent Bytecode Transformation": cache the decoded form,
// invalidate when code changes). Here "when code changes" is exactly
// the icache-flush discipline the paper's patching runtime already
// follows, so the decode cache simply lives inside the icache line:
//
//   - A line caches only the offsets it has decoded: a pointer-free
//     per-offset index (two bytes per page byte) selects a dense entry
//     holding the decoded instruction and the superblock headed there.
//     A fresh line therefore costs its byte snapshot plus the index,
//     and grows only with the code actually run.
//   - Entries are derived exclusively from the line's byte snapshot
//     and leave the CPU together with the line in FlushICache.
//     Patching without a flush therefore keeps executing the stale
//     *decoded* instruction, just as the raw interpreter keeps
//     executing the stale bytes.
//   - An instruction is cached only when its whole fetch window lies
//     within one page. A window that straddles a page boundary draws
//     bytes from two lines with independent lifetimes (the second page
//     can be flushed while the first stays cached), so those always
//     take the fetch-and-decode slow path.
//   - Each CPU owns its icache lines, so one thread's flush never
//     drops another's. The decoded entries behind a line are shared:
//     they live in the CPU's Code store (code.go), keyed by page
//     number and bytes, so every CPU filling the same bytes for the
//     same page — a machine's SMP threads, the machines of a fleet
//     shard — reuses one decode, and a refill after a flush of
//     unchanged bytes decodes nothing.
//
// The cache is a pure host-side accelerator: every entry is the decode
// of its line's own byte snapshot, so simulated cycle counts and
// architectural state are exactly those of decoding each instruction
// afresh. checkLineCaches (decodecache_test.go) holds every resident
// line to that reference.

package cpu

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// cachedInst returns the predecoded instruction at pc, or nil. The
// pointer aims into the line's entries and is valid until the next
// cacheInst or buildBlock on that line, which is all Step needs. It
// memoizes the last icache line to keep the steady-state hit path free
// of map lookups; FlushICache clears the memo along with the lines.
func (c *CPU) cachedInst(pc uint64) *isa.Inst {
	pn := pc >> mem.PageShift
	line := c.lastLine
	if line == nil || c.lastPN != pn {
		var ok bool
		l, ok := c.icache[pn]
		if !ok {
			return nil
		}
		line = l.code
		c.lastPN, c.lastLine = pn, line
	}
	i := line.idx[pc&(mem.PageSize-1)]
	if i == 0 {
		return nil
	}
	if in := &line.ents[i-1].in; in.Len != 0 {
		return in
	}
	return nil
}

// cacheInst records the decode of the instruction at pc, provided its
// whole fetch window lies within pc's page. Instructions in the last
// maxInstLen-1 bytes of a page are never cached: their window bytes
// came (or would come) from the next page's line, whose lifetime is
// independent — caching them under the first page could outlive a
// flush of the second and break the cycle-invariance guarantee.
func (c *CPU) cacheInst(pc uint64, in isa.Inst) {
	off := pc & (mem.PageSize - 1)
	if off+maxInstLen > mem.PageSize {
		return
	}
	line, ok := c.icache[pc>>mem.PageShift]
	if !ok {
		return
	}
	line.code.ent(off).in = in
}
