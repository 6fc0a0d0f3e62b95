package virtio_test

import (
	"testing"

	"nvmetro/internal/device"
	"nvmetro/internal/sim"
	"nvmetro/internal/stack"
	"nvmetro/internal/virtio"
	"nvmetro/internal/vm"
)

// TestHostileChainEveryBackend has a guest publish, behind its driver's
// back, an avail entry naming a head past the queue and then a chain whose
// Next points past it. Every virtio backend (the QEMU iothread, the vhost
// worker, the SPDK reactor) must count both as guest errors instead of
// panicking the host, and the guest's next well-formed request must still
// complete.
func TestHostileChainEveryBackend(t *testing.T) {
	for name, mk := range map[string]func(*stack.Host) stack.Solution{
		"QEMU":  func(h *stack.Host) stack.Solution { return stack.NewQEMU(h) },
		"Vhost": func(h *stack.Host) stack.Solution { return stack.NewVhostSCSI(h) },
		"SPDK":  func(h *stack.Host) stack.Solution { return stack.NewSPDK(h) },
	} {
		t.Run(name, func(t *testing.T) {
			env := sim.New(1)
			defer env.Close()
			h := stack.NewHost(env, 12, 4, stack.DefaultParams(), device.NewMemStore(512))
			v := h.NewVM(1, 64<<20)
			disk := mk(h).Provision(v, device.WholeNamespace(h.Dev, 1))
			q := disk.(interface{ Queues() []*virtio.Queue }).Queues()[0]
			size := q.Ring.Size()
			q.Ring.Publish(size + 3)
			// Descriptor 0 is the last one the driver hands out.
			q.Ring.WriteDesc(0, virtio.Desc{Addr: 0x1000, Len: 16, Flags: 1 /* NEXT */, Next: size})
			q.Ring.Publish(0)

			done := false
			env.Go("guest", func(p *sim.Proc) {
				defer env.Stop()
				base, pages, _ := v.Mem.AllocBuffer(512)
				r := &vm.Req{Op: vm.OpRead, LBA: 8, Blocks: 1, Buf: base, BufPages: pages}
				if st := vm.SubmitAndWait(p, disk, v.VCPU(0), r); !st.OK() {
					t.Errorf("well-formed read after the hostile chains: %v", st)
				}
				done = true
			})
			env.RunUntil(sim.Time(sim.Second))
			if !done {
				t.Fatal("the well-formed read never completed")
			}
			if q.GuestErrors != 2 {
				t.Fatalf("guest errors %d, want 2", q.GuestErrors)
			}
		})
	}
}
