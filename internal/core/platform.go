package core

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
)

// Platform is how the runtime library reads and patches memory. The
// paper ports the library to Linux user space, the Linux kernel and
// OctopOS by swapping exactly this layer (§5); here the ports share
// one machine and differ only in their write policy, so the layer is
// one concrete type. Everything that is not policy — stop-machine
// rendezvous, stack scans, protections, shootdown verification — the
// runtime asks the machine for directly.
type Platform struct {
	M *machine.Machine
	// Kernel selects the kernel port's write policy: patch straight
	// through the direct mapping, without protection flips. The user
	// port (false) mprotects the pages writable (never
	// writable+executable, so it also works under strict W^X), writes
	// and restores the original protection.
	Kernel bool
}

// Read copies memory into buf.
func (p Platform) Read(addr uint64, buf []byte) error {
	return p.M.Mem.Read(addr, buf)
}

// Patch writes buf into the text segment under the port's write
// policy.
func (p Platform) Patch(addr uint64, buf []byte) error {
	if p.Kernel {
		return p.M.Mem.WriteForce(addr, buf)
	}
	if len(buf) == 0 {
		return nil
	}
	orig, ok := p.M.Mem.ProtOf(addr)
	if !ok {
		return fmt.Errorf("core: patch of unmapped address %#x", addr)
	}
	if err := p.M.Mem.Protect(addr, uint64(len(buf)), mem.RW); err != nil {
		return err
	}
	if err := p.M.Mem.Write(addr, buf); err != nil {
		return err
	}
	return p.M.Mem.Protect(addr, uint64(len(buf)), orig)
}

// FlushICache invalidates any cached decode of the range on every
// hardware thread: on SMP machines a patch must shoot down all
// icaches, not just the patching CPU's. Skipping it after a Patch
// leaves the CPUs executing stale bytes.
func (p Platform) FlushICache(addr, n uint64) {
	p.M.FlushICacheAll(addr, n)
}
