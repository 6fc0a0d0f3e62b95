package ebpf_test

import (
	"testing"

	"nvmetro/internal/core"
	"nvmetro/internal/device"
	"nvmetro/internal/ebpf"
	"nvmetro/internal/storfn"
)

// shippedClassifiers are the router's default classifier and the six
// storage-function classifiers.
func shippedClassifiers() []*ebpf.Program {
	part := device.Partition{Start: 4096, Blocks: 8192}
	partition, _ := storfn.PartitionClassifier(part)
	encryptor, _ := storfn.EncryptorClassifier(part)
	replicator, _ := storfn.ReplicatorClassifier(part)
	qos, _, _ := storfn.QoSClassifier(part)
	qosclass, _, _ := storfn.QoSClassClassifier(part)
	cache, _ := storfn.CacheClassifier(part, core.NewHotHints(3, 1<<10), 2)
	return []*ebpf.Program{core.DefaultClassifier(), partition, encryptor, replicator, qos, qosclass, cache}
}

// TestVerdictMatchesReference holds the verifier's static verdict to the
// join-based analysis it replaced: every program the reference proves, the
// verifier proves to the same constant. The verifier follows each path on
// its own, so it may prove more; the differential test and
// FuzzVerifiedProgram check those proofs against execution.
func TestVerdictMatchesReference(t *testing.T) {
	cps := ebpf.VerdictCorpus(t, 20000)
	for _, p := range shippedClassifiers() {
		cp, err := ebpf.Compile(p, core.NewVerifier())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		cps = append(cps, cp)
	}
	both, onlyVerifier := 0, 0
	for i, cp := range cps {
		want, refOK := ebpf.StaticVerdictReference(cp)
		got, ok := cp.StaticVerdict()
		switch {
		case refOK && (!ok || got != want):
			t.Fatalf("program %d (%s): reference proves %#x, verifier (%#x, %v)\n%s",
				i, cp.Name(), want, got, ok, ebpf.Disassemble(cp.Source()))
		case refOK:
			both++
		case ok:
			onlyVerifier++
		}
	}
	t.Logf("%d programs: %d proved by both, %d by the verifier only", len(cps), both, onlyVerifier)
	if both < 20000/5 {
		t.Fatalf("only %d proofs; the constant-only fifth of the corpus alone is %d", both, 20000/5)
	}
}
