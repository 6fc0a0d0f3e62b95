package storfn_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"nvmetro/internal/core"
	"nvmetro/internal/device"
	"nvmetro/internal/ebpf"
	"nvmetro/internal/nvme"
	"nvmetro/internal/storfn"
)

// shippedClassifiers builds every shipped classifier with fresh map
// instances (so two builds mutate independent state).
func shippedClassifiers() map[string]func() *ebpf.Program {
	part := parityPart
	return map[string]func() *ebpf.Program{
		"partition": func() *ebpf.Program {
			p, _ := storfn.PartitionClassifier(part)
			return p
		},
		"encryptor": func() *ebpf.Program {
			p, _ := storfn.EncryptorClassifier(part)
			return p
		},
		"replicator": func() *ebpf.Program {
			p, _ := storfn.ReplicatorClassifier(part)
			return p
		},
		"cache": func() *ebpf.Program {
			p, _ := storfn.CacheClassifier(part, core.NewHotHints(3, 1<<10), 2)
			return p
		},
	}
}

// parityPart is the partition every shipped classifier above mediates.
var parityPart = device.Partition{Start: 4096, Blocks: 8192}

// boundaryCases are guest ranges at the partition's edges and at the top of
// the LBA space, where a 64-bit lba+blocks wraps.
var boundaryCases = []struct {
	lba    uint64
	blocks uint32
}{
	{0, 1}, {0, 8192 - 4096}, {8191, 1}, {8190, 2}, {8192 - 1000, 1000},
	{8192, 1}, {8191, 2}, {8192 - 999, 1000}, {0, 65536},
	{^uint64(0), 1}, {^uint64(0), 2}, {^uint64(0) - 499, 1000}, {^uint64(0) - 65535, 65536},
}

// genCtx synthesizes a classifier context: half structured (plausible NVMe
// I/O commands, mostly in-partition), half random bytes, so both the happy
// paths and the error/bounds paths run on both tiers.
func genCtx(rng *rand.Rand) []byte {
	ctx := make([]byte, core.CtxSize)
	if rng.Intn(2) == 0 {
		rng.Read(ctx)
	}
	binary.LittleEndian.PutUint32(ctx[core.CtxOffHook:], uint32(rng.Intn(4)))
	cmd := ctx[core.CtxOffCmd:]
	cmd[0] = byte(rng.Intn(4))                                      // opcode: admin/write/read/..
	binary.LittleEndian.PutUint64(cmd[40:], uint64(rng.Intn(9000))) // SLBA, sometimes out of range
	binary.LittleEndian.PutUint32(cmd[48:], uint32(rng.Intn(32)))   // NLB
	return ctx
}

// TestShippedClassifierParity runs every shipped classifier on both
// execution tiers (independent map state each) across a shared command
// sequence and requires identical action words and context writebacks —
// the contract that lets the router run them compiled by default. On the
// boundary cases both tiers must also agree with device.Partition.Translate,
// the definition their shared mediation prologue restates in eBPF: out of
// range is refused with the SLBA untouched, in range is rewritten to exactly
// the device LBA, for every ranged opcode.
func TestShippedClassifierParity(t *testing.T) {
	const oob = uint64(core.ActComplete) | uint64(nvme.SCLBAOutOfRange)
	for name, build := range shippedClassifiers() {
		t.Run(name, func(t *testing.T) {
			progI := build()
			progC := build()
			cp, err := ebpf.Compile(progC, core.NewVerifier())
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			vmI, vmC := ebpf.NewVM(nil), ebpf.NewVM(nil)
			// both runs ctxI on the two tiers and returns the action word,
			// leaving the agreed writeback in ctxI.
			both := func(what string, ctxI []byte) uint64 {
				ctxC := append([]byte(nil), ctxI...)
				retI, errI := vmI.Run(progI, ctxI)
				retC, errC := vmC.RunCompiled(cp, ctxC)
				if (errI == nil) != (errC == nil) {
					t.Fatalf("%s: error mismatch: %v vs %v", what, errI, errC)
				}
				if errI == nil && retI != retC {
					t.Fatalf("%s: action %#x (interp) != %#x (compiled)", what, retI, retC)
				}
				if !bytes.Equal(ctxI, ctxC) {
					t.Fatalf("%s: ctx writeback diverged", what)
				}
				return retI
			}
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 500; i++ {
				both(fmt.Sprintf("cmd %d", i), genCtx(rng))
			}
			for _, op := range []uint8{nvme.OpRead, nvme.OpWrite, nvme.OpWriteZeroes, nvme.OpDSM} {
				for _, c := range boundaryCases {
					ctx := make([]byte, core.CtxSize)
					cmd := (*nvme.Command)(ctx[core.CtxOffCmd:])
					cmd.SetOpcode(op)
					cmd.SetSLBA(c.lba)
					cmd.SetNLB(uint16(c.blocks - 1))
					what := fmt.Sprintf("op %#x at (%#x, %d)", op, c.lba, c.blocks)
					ret := both(what, ctx)
					abs, ok := parityPart.Translate(c.lba, c.blocks)
					if !ok {
						abs = c.lba
					}
					if (ret == oob) == ok || cmd.SLBA() != abs {
						t.Errorf("%s: action %#x, SLBA %#x; Translate says %#x, %v", what, ret, cmd.SLBA(), abs, ok)
					}
				}
			}
		})
	}
}

// BenchmarkClassifierSuite measures every shipped classifier on both tiers
// over a representative in-partition read command.
func BenchmarkClassifierSuite(b *testing.B) {
	ctx := make([]byte, core.CtxSize)
	cmd := ctx[core.CtxOffCmd:]
	cmd[0] = 2 // read
	binary.LittleEndian.PutUint64(cmd[40:], 128)
	binary.LittleEndian.PutUint32(cmd[48:], 7)

	for name, build := range shippedClassifiers() {
		p := build()
		cp, err := ebpf.Compile(build(), core.NewVerifier())
		if err != nil {
			b.Fatalf("%s: compile: %v", name, err)
		}
		b.Run(fmt.Sprintf("%s/interpreter", name), func(b *testing.B) {
			vm := ebpf.NewVM(nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := vm.Run(p, ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/compiled", name), func(b *testing.B) {
			vm := ebpf.NewVM(nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := vm.RunCompiled(cp, ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
