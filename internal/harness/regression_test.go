package harness

import (
	"testing"

	"nvmetro/internal/device"
	"nvmetro/internal/sim"
	"nvmetro/internal/stack"
	"nvmetro/internal/vm"
)

// Regression test for a lost wake-up in the UIF adaptive poller: a uring
// completion landing during the poller's final spin quantum before parking
// was never reaped, wedging multicast (replication) writes whose PRP used
// two pages. Forty 8 KiB mirrored writes, each after a guest pause that
// grows by 2 µs per write (0 to 78 µs, across the poller's 50 µs park
// budget), land their notifications and ring completions on both sides of
// the park; every write must complete OK within the run.
func TestReplicationManyTwoPagePRPWrites(t *testing.T) {
	const writes = 40
	env := sim.New(8)
	p := stack.DefaultParams()
	h := stack.NewHost(env, 12, 4, p, device.NullStore{})
	defer env.Close()
	v := h.NewVM(4, 512<<20)
	remote := stack.NewRemoteHost(env, 4, p.Device, device.NullStore{})
	vol := stack.NewNVMetro(h).Attach(v, device.WholeNamespace(h.Dev, 1), stack.Spec{Replicate: remote.Secondary()})
	disk := vol.Disk

	done := 0
	env.Go("t", func(pr *sim.Proc) {
		defer env.Stop()
		base, pages, _ := v.Mem.AllocBuffer(8192)
		for i := 0; i < writes; i++ {
			pr.Sleep(sim.Duration(i) * 2 * sim.Microsecond)
			r := &vm.Req{Op: vm.OpWrite, LBA: uint64(i) * 16, Blocks: 16, Buf: base, BufPages: pages}
			if st := vm.SubmitAndWait(pr, disk, v.VCPU(0), r); !st.OK() {
				t.Errorf("write %d: %v", i, st)
				return
			}
			done++
		}
	})
	env.RunUntil(sim.Time(20 * sim.Millisecond))
	if done != writes {
		t.Fatalf("%d of %d mirrored writes completed OK (%d forwarded to the secondary)",
			done, writes, vol.Replicator().Forwarded)
	}
}
