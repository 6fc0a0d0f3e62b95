package core_test

import (
	"bytes"
	"testing"

	"nvmetro/internal/device"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

func TestMulticastManyLargeWrites(t *testing.T) {
	r := newRig(1)
	part := device.WholeNamespace(r.dev, 1)
	v, vc, disk := r.addVM(0, part)
	prog := replicatorClassifier(part)
	if err := vc.LoadClassifier(prog); err != nil {
		t.Fatal(err)
	}
	u := attachFakeUIF(r.env, vc)
	u.delay = 30 * sim.Microsecond
	r.run(t, func(p *sim.Proc) {
		data := bytes.Repeat([]byte{9}, 8192)
		for i := 0; i < 40; i++ {
			if st := doIO(p, v, disk, vm.OpWrite, uint64(i)*16, data); !st.OK() {
				t.Fatalf("write %d: %v", i, st)
			}
		}
	})
	if len(u.seen) != 40 || r.dev.Writes != 40 {
		t.Fatalf("uif=%d dev=%d", len(u.seen), r.dev.Writes)
	}
}
