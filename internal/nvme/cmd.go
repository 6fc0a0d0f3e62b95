// Package nvme implements the subset of the NVM Express protocol that
// NVMetro mediates: 64-byte submission commands, 16-byte completions with
// phase bits, submission/completion ring queues, PRP data pointers and the
// NVM command set's opcodes. There is no admin queue: a guest driver creates
// its I/O queues through its port (vm.Port.CreateQP).
//
// Commands are kept in wire format ([64]byte, little-endian) because both
// the queue rings and the eBPF classifiers operate on raw command memory,
// exactly as in the paper (classifiers perform "direct mediation" by
// rewriting command bytes, e.g. LBA translation).
package nvme

import (
	"encoding/binary"
	"fmt"
)

// CommandSize is the size of a submission queue entry in bytes.
const CommandSize = 64

// CompletionSize is the size of a completion queue entry in bytes.
const CompletionSize = 16

// PageSize is the memory page size assumed by the PRP mechanism (CC.MPS=0).
const PageSize = 4096

// I/O (NVM command set) opcodes.
const (
	OpFlush       uint8 = 0x00
	OpWrite       uint8 = 0x01
	OpRead        uint8 = 0x02
	OpWriteUncorr uint8 = 0x04
	OpCompare     uint8 = 0x05
	OpWriteZeroes uint8 = 0x08
	OpDSM         uint8 = 0x09 // dataset management (TRIM)

	// OpVendorStart is the first vendor-specific I/O opcode. NVMetro can
	// pass vendor commands straight to hardware when the classifier allows.
	OpVendorStart uint8 = 0x80
)

// Command is one 64-byte NVMe submission queue entry in wire format.
//
// Layout (little-endian):
//
//	DW0  : opcode[7:0] flags[15:8] cid[31:16]
//	DW1  : nsid
//	DW2-3: reserved
//	DW4-5: mptr
//	DW6-7: prp1
//	DW8-9: prp2
//	DW10..15: command-specific
type Command [CommandSize]byte

// Opcode returns the command opcode.
func (c *Command) Opcode() uint8 { return c[0] }

// SetOpcode sets the command opcode.
func (c *Command) SetOpcode(op uint8) { c[0] = op }

// CID returns the command identifier (unique within a queue).
func (c *Command) CID() uint16 { return binary.LittleEndian.Uint16(c[2:4]) }

// SetCID sets the command identifier.
func (c *Command) SetCID(cid uint16) { binary.LittleEndian.PutUint16(c[2:4], cid) }

// NSID returns the namespace ID.
func (c *Command) NSID() uint32 { return binary.LittleEndian.Uint32(c[4:8]) }

// SetNSID sets the namespace ID.
func (c *Command) SetNSID(ns uint32) { binary.LittleEndian.PutUint32(c[4:8], ns) }

// PRP1 returns the first PRP entry of the data pointer.
func (c *Command) PRP1() uint64 { return binary.LittleEndian.Uint64(c[24:32]) }

// SetPRP1 sets the first PRP entry.
func (c *Command) SetPRP1(v uint64) { binary.LittleEndian.PutUint64(c[24:32], v) }

// PRP2 returns the second PRP entry (second page or PRP-list pointer).
func (c *Command) PRP2() uint64 { return binary.LittleEndian.Uint64(c[32:40]) }

// SetPRP2 sets the second PRP entry.
func (c *Command) SetPRP2(v uint64) { binary.LittleEndian.PutUint64(c[32:40], v) }

// CDW returns command dword n (10..15 are the command-specific dwords).
func (c *Command) CDW(n int) uint32 { return binary.LittleEndian.Uint32(c[n*4 : n*4+4]) }

// SetCDW sets command dword n.
func (c *Command) SetCDW(n int, v uint32) { binary.LittleEndian.PutUint32(c[n*4:n*4+4], v) }

// SLBA returns the starting LBA of a read/write/compare command (CDW10-11).
func (c *Command) SLBA() uint64 { return binary.LittleEndian.Uint64(c[40:48]) }

// SetSLBA sets the starting LBA.
func (c *Command) SetSLBA(lba uint64) { binary.LittleEndian.PutUint64(c[40:48], lba) }

// NLB returns the 0-based number of logical blocks (CDW12[15:0]); the
// transfer length is NLB()+1 blocks.
func (c *Command) NLB() uint16 { return uint16(c.CDW(12)) }

// SetNLB sets the 0-based number of logical blocks.
func (c *Command) SetNLB(n uint16) {
	v := c.CDW(12)
	c.SetCDW(12, v&0xffff0000|uint32(n))
}

// Blocks returns the 1-based block count of an I/O command.
func (c *Command) Blocks() uint32 { return uint32(c.NLB()) + 1 }

// IsIO reports whether the opcode moves user data (read/write family).
func (c *Command) IsIO() bool {
	switch c.Opcode() {
	case OpRead, OpWrite, OpCompare, OpWriteZeroes, OpWriteUncorr:
		return true
	}
	return false
}

// Ranged reports whether the command addresses an LBA range through SLBA and
// NLB: the data-moving opcodes and dataset management. These are the
// commands a tenant's partition confines.
func (c *Command) Ranged() bool { return c.IsIO() || c.Opcode() == OpDSM }

func (c *Command) String() string {
	return fmt.Sprintf("cmd{op=%#02x cid=%d nsid=%d slba=%d nlb=%d}",
		c.Opcode(), c.CID(), c.NSID(), c.SLBA(), c.NLB())
}

// NewRW builds a read or write command.
func NewRW(op uint8, cid uint16, nsid uint32, slba uint64, blocks uint32, prp1, prp2 uint64) Command {
	var c Command
	c.SetOpcode(op)
	c.SetCID(cid)
	c.SetNSID(nsid)
	c.SetSLBA(slba)
	c.SetNLB(uint16(blocks - 1))
	c.SetPRP1(prp1)
	c.SetPRP2(prp2)
	return c
}

// NewFlush builds a flush command.
func NewFlush(cid uint16, nsid uint32) Command {
	var c Command
	c.SetOpcode(OpFlush)
	c.SetCID(cid)
	c.SetNSID(nsid)
	return c
}

// Completion is one 16-byte NVMe completion queue entry.
//
// Layout: DW0 result, DW1 reserved, DW2 sqhd[15:0] sqid[31:16],
// DW3 cid[15:0] phase[16] status[31:17].
type Completion [CompletionSize]byte

// Result returns command-specific result DW0.
func (e *Completion) Result() uint32 { return binary.LittleEndian.Uint32(e[0:4]) }

// SetResult sets DW0.
func (e *Completion) SetResult(v uint32) { binary.LittleEndian.PutUint32(e[0:4], v) }

// SetSQHD sets the echoed SQ head.
func (e *Completion) SetSQHD(v uint16) { binary.LittleEndian.PutUint16(e[8:10], v) }

// SQID returns the submission queue this completion belongs to.
func (e *Completion) SQID() uint16 { return binary.LittleEndian.Uint16(e[10:12]) }

// SetSQID sets the submission queue ID.
func (e *Completion) SetSQID(v uint16) { binary.LittleEndian.PutUint16(e[10:12], v) }

// CID returns the completed command's identifier.
func (e *Completion) CID() uint16 { return binary.LittleEndian.Uint16(e[12:14]) }

// SetCID sets the command identifier.
func (e *Completion) SetCID(v uint16) { binary.LittleEndian.PutUint16(e[12:14], v) }

// Phase returns the phase tag bit.
func (e *Completion) Phase() bool { return e[14]&1 != 0 }

// SetPhase sets the phase tag bit.
func (e *Completion) SetPhase(p bool) {
	if p {
		e[14] |= 1
	} else {
		e[14] &^= 1
	}
}

// Status returns the 15-bit status field (SCT<<8 | SC packed per spec).
func (e *Completion) Status() Status {
	return Status(binary.LittleEndian.Uint16(e[14:16]) >> 1)
}

// SetStatus sets the status field, preserving the phase bit.
func (e *Completion) SetStatus(s Status) {
	v := binary.LittleEndian.Uint16(e[14:16])
	v = v&1 | uint16(s)<<1
	binary.LittleEndian.PutUint16(e[14:16], v)
}

func (e *Completion) String() string {
	return fmt.Sprintf("cqe{cid=%d sqid=%d status=%v phase=%v}", e.CID(), e.SQID(), e.Status(), e.Phase())
}
