// Package storfn implements the paper's storage functions on top of
// NVMetro: the transparent-encryption function (eBPF classifier + XTS-AES
// UIF, with an optional SGX-enclave variant) and the live disk-replication
// function (classifier + mirroring UIF over NVMe-oF), plus a partition
// classifier used as the baseline policy.
//
// The classifiers are written in eBPF assembly (see internal/ebpf's
// assembler) and correspond to Listing 1 of the paper, extended with the
// LBA translation and bounds check that confine a VM to its partition —
// the "direct mediation" step.
package storfn

import (
	"nvmetro/internal/core"
	"nvmetro/internal/device"
	"nvmetro/internal/ebpf"
)

// Classifier context field offsets used by the assembly below (see
// core.CtxOff*): hook at 0, error at 4, command at 32; within the command,
// opcode at +0 (ctx 32), SLBA at +40 (ctx 72), CDW12 at +48 (ctx 80).

// mediateSrc is the direct-mediation prologue every shipped classifier is
// composed from: look the partition up in the cfg map, bounds-check the
// guest's range and rewrite SLBA to a device LBA. The check is
// device.Partition.Translate's — slba > size || nblocks > size - slba — so
// no guest-chosen SLBA can wrap it. It enters with r1 = ctx and falls
// through with r9 = ctx, r3 = opcode, r4 = device SLBA, r5 = block count and
// r6 = partition start (r7 is spent); flush, which carries no LBA, leaves for
// the composing source's passthru label, failures for exitSrc's.
const mediateSrc = `
	mov   r9, r1            ; r9 = ctx
	mov   r2, 0
	stxw  [r10-4], r2       ; key = 0
	ldmap r1, cfg
	mov   r2, r10
	add   r2, -4
	call  map_lookup_elem
	jeq   r0, 0, internal
	ldxdw r6, [r0+0]        ; partition start LBA
	ldxdw r7, [r0+8]        ; partition size in blocks
	ldxb  r3, [r9+32]       ; opcode
	jeq   r3, 0, passthru   ; flush: no LBA
	ldxdw r4, [r9+72]       ; slba
	ldxw  r5, [r9+80]       ; cdw12
	and   r5, 0xffff        ; nlb (0-based)
	add   r5, 1             ; block count
	jgt   r4, r7, oob       ; starts past the end
	sub   r7, r4            ; blocks left from slba: cannot wrap
	jgt   r5, r7, oob
	add   r4, r6            ; direct mediation: rewrite the LBA
	stxdw [r9+72], r4
`

// exitSrc is the shared tail of every composed classifier.
const exitSrc = `
oob:
	mov   r0, 0x2000080     ; COMPLETE | LBAOutOfRange
	exit
internal:
	mov   r0, 0x2000006     ; COMPLETE | InternalError
	exit
`

// partitionSrc is the baseline classifier: confine the VM to its partition
// (bounds check + LBA translation) and send everything to the fast path.
const partitionSrc = `
; partition classifier: translate guest LBAs to device LBAs, fast path only
` + mediateSrc + `
passthru:
	mov   r0, 0x410000      ; SEND_HQ | WILL_COMPLETE_HQ
	exit
` + exitSrc

// encryptorSrc is the data-encryption classifier (paper Listing 1):
// reads go to the device first, then to the UIF for decryption; writes go
// to the UIF, which encrypts and persists them itself.
const encryptorSrc = `
; encryptor classifier (Listing 1 + partition mediation)
	ldxw  r2, [r1+0]        ; current hook
	jeq   r2, 1, hcq_hook   ; HOOK_HCQ: device read finished
; --- HOOK_VSQ: new request ---
` + mediateSrc + `
	jeq   r3, 2, is_read
	jeq   r3, 1, is_write
passthru:
	mov   r0, 0x410000      ; SEND_HQ | WILL_COMPLETE_HQ
	exit
is_read:
	mov   r0, 0x4090000     ; SEND_HQ | HOOK_HCQ | WAIT_FOR_HOOK
	exit
is_write:
	mov   r0, 0x820000      ; SEND_NQ | WILL_COMPLETE_NQ (UIF encrypts+writes)
	exit
hcq_hook:
	ldxw  r0, [r1+4]        ; device read status
	jne   r0, 0, dev_err
	mov   r0, 0x820000      ; ciphertext in guest buffer: UIF decrypts
	exit
dev_err:
	or    r0, 0x2000000     ; forward the error | COMPLETE
	exit
` + exitSrc

// replicatorSrc is the disk-mirroring classifier: reads are served by the
// local (primary) disk only; writes go synchronously to both the primary
// disk and the UIF, which forwards them to the remote secondary.
const replicatorSrc = `
; replicator classifier: read local, write both
` + mediateSrc + `
	jeq   r3, 1, is_write
passthru:
	mov   r0, 0x410000      ; reads and admin: local fast path only
	exit
is_write:
	mov   r0, 0xc30000      ; SEND_HQ|SEND_NQ|WILL_COMPLETE_HQ|WILL_COMPLETE_NQ
	exit
` + exitSrc

// buildWithConfig assembles src with the partition config map attached.
func buildWithConfig(src, name string, cfg *ebpf.ArrayMap) *ebpf.Program {
	return ebpf.MustAssemble(src, name, map[string]ebpf.Map{"cfg": cfg})
}

// PartitionClassifier returns the baseline (fast-path-only) classifier for
// the given partition, plus its live-updatable config map.
func PartitionClassifier(part device.Partition) (*ebpf.Program, *ebpf.ArrayMap) {
	cfg := core.NewPartitionConfigMap(part)
	return buildWithConfig(partitionSrc, "partition", cfg), cfg
}

// EncryptorClassifier returns the transparent-encryption classifier.
func EncryptorClassifier(part device.Partition) (*ebpf.Program, *ebpf.ArrayMap) {
	cfg := core.NewPartitionConfigMap(part)
	return buildWithConfig(encryptorSrc, "encryptor", cfg), cfg
}

// replicatorClassifier returns the disk-replication classifier.
func replicatorClassifier(part device.Partition) (*ebpf.Program, *ebpf.ArrayMap) {
	cfg := core.NewPartitionConfigMap(part)
	return buildWithConfig(replicatorSrc, "replicator", cfg), cfg
}

// classifierExtra holds classifiers registered outside the core trio.
var classifierExtra = map[string]string{}

// ClassifierSources exposes the assembly sources for Table I (source code
// size accounting) and for the nvmetro-asm tool's examples.
func ClassifierSources() map[string]string {
	out := map[string]string{
		"partition":  partitionSrc,
		"encryptor":  encryptorSrc,
		"replicator": replicatorSrc,
	}
	for name, src := range classifierExtra {
		out[name] = src
	}
	return out
}
