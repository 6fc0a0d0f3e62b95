package storfn

import (
	"nvmetro/internal/core"
	"nvmetro/internal/device"
	"nvmetro/internal/ebpf"
)

// qosSrc is a token-bucket QoS classifier: a per-VM block budget lives in
// the qos map (entry 0, u64 tokens); every I/O atomically consumes its
// block count or is rejected with Namespace Not Ready, and the control
// plane refills the bucket on its own schedule by writing the map — rate
// limits change live, with no VM or router involvement. This is the class
// of policy the paper contrasts against fixed stacks, where QoS has to be
// implemented inside the storage stack itself.
const qosSrc = `
; token-bucket QoS + partition mediation
` + mediateSrc + `
	mov   r8, r5            ; block count, across the helper call
; charge the token bucket
	mov   r2, 0
	stxw  [r10-4], r2
	ldmap r1, qos
	mov   r2, r10
	add   r2, -4
	call  map_lookup_elem
	jeq   r0, 0, internal
	ldxdw r5, [r0+0]        ; tokens
	jlt   r5, r8, throttle  ; not enough budget
	sub   r5, r8
	stxdw [r0+0], r5        ; consume
passthru:
	mov   r0, 0x410000      ; SEND_HQ | WILL_COMPLETE_HQ
	exit
throttle:
	mov   r0, 0x2000082     ; COMPLETE | NamespaceNotReady (retryable)
	exit
` + exitSrc

// QoSClassifier returns the token-bucket classifier plus its two live maps:
// the partition config and the token bucket (refill by SetU64(0, 0, n)).
func QoSClassifier(part device.Partition) (*ebpf.Program, *ebpf.ArrayMap, *ebpf.ArrayMap) {
	cfg := core.NewPartitionConfigMap(part)
	bucket := ebpf.NewArrayMap(8, 1)
	prog := ebpf.MustAssemble(qosSrc, "qos", map[string]ebpf.Map{"cfg": cfg, "qos": bucket}, nil)
	return prog, cfg, bucket
}

func init() {
	// Expose the source through the inventory used by Table I / the asm tool.
	classifierExtra["qos"] = qosSrc
}

// classifierExtra holds classifiers registered outside the core trio.
var classifierExtra = map[string]string{}

// qosClassSrc is the class-tagging partition classifier: the same
// sandboxed policy that mediates and translates LBAs also tags each
// command's QoS scheduling class, looked up per opcode in the class
// policy map and installed via the qos_set_class helper. This is the
// "policy in the program" integration the tentpole asks for — the
// fast/kernel/notify decision and the scheduling priority come from one
// verified program, and the control plane retunes priorities by writing
// the map, with no reload.
const qosClassSrc = `
; class-tagging partition classifier
	mov   r9, r1
	ldxb  r8, [r9+32]       ; opcode
; tag the scheduling class for this opcode
	stxw  [r10-4], r8
	ldmap r1, class
	mov   r2, r10
	add   r2, -4
	call  map_lookup_elem
	jeq   r0, 0, tagged     ; no policy entry: default class
	ldxb  r1, [r0+0]
	call  qos_set_class
tagged:
	mov   r1, r9
` + mediateSrc + `
passthru:
	mov   r0, 0x410000      ; SEND_HQ | WILL_COMPLETE_HQ
	exit
` + exitSrc

// QoSClassClassifier returns the class-tagging partition classifier plus
// its live maps: the partition config and the per-opcode class policy map
// (see core.NewQoSClassMap / core.SetOpcodeClass).
func QoSClassClassifier(part device.Partition) (*ebpf.Program, *ebpf.ArrayMap, *ebpf.ArrayMap) {
	cfg := core.NewPartitionConfigMap(part)
	class := core.NewQoSClassMap()
	prog := ebpf.MustAssemble(qosClassSrc, "qosclass", map[string]ebpf.Map{"cfg": cfg, "class": class}, nil)
	return prog, cfg, class
}

func init() {
	classifierExtra["qosclass"] = qosClassSrc
}
