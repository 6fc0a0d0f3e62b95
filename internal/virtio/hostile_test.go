package virtio_test

import (
	"bytes"
	"encoding/binary"
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

// TestDataChainLayouts has a guest publish, behind its driver's back,
// virtio-blk reads whose data descriptors are not one page each: an 8 KiB
// read in one descriptor over two contiguous pages, and a 4 KiB read as two
// 2 KiB descriptors, each at the start of a page of its own. QEMU copies
// into any chain. SPDK's zero-copy PRPs split each descriptor at page
// boundaries, so the 8 KiB read returns what QEMU's does; the second chain
// is one no PRP list describes (its first descriptor ends mid-page), so SPDK
// fails it unsubmitted. Neither backend may write a guest byte outside the
// chain's descriptors.
func TestDataChainLayouts(t *testing.T) {
	const (
		descNext, descWrite = 1, 2
		page                = 4096
		sector              = 16
		sentinel            = 0xee
	)
	written := make([]byte, 8192)
	for i := range written {
		written[i] = byte(i*7 + i>>9)
	}
	type piece struct{ page, len int } // a data descriptor: page of the region, length from its start
	for _, tc := range []struct {
		name   string
		pages  int // pages of the data region
		data   []piece
		failOn map[string]bool
	}{
		{"8KiB in one descriptor", 2, []piece{{0, 8192}}, nil},
		{"4KiB as two 2KiB page starts", 3, []piece{{0, 2048}, {2, 2048}}, map[string]bool{"SPDK": true}},
	} {
		for _, b := range []struct {
			name string
			mk   func(*stack.Host) stack.Solution
		}{
			{"QEMU", func(h *stack.Host) stack.Solution { return stack.NewQEMU(h) }},
			{"SPDK", func(h *stack.Host) stack.Solution { return stack.NewSPDK(h) }},
		} {
			t.Run(tc.name+"/"+b.name, func(t *testing.T) {
				env := sim.New(1)
				defer env.Close()
				h := stack.NewHost(env, 12, 4, stack.DefaultParams(), device.NewMemStore(512))
				v := h.NewVM(1, 64<<20)
				disk := b.mk(h).Provision(v, device.WholeNamespace(h.Dev, 1))
				q := disk.(interface{ Queues() []*virtio.Queue }).Queues()[0]

				ctl := v.Mem.MustAllocPages(1) // header at 0, status byte at 64
				region := v.Mem.MustAllocPages(tc.pages)
				v.Mem.WriteAt(bytes.Repeat([]byte{sentinel}, tc.pages*page), region)
				v.Mem.WriteAt([]byte{sentinel}, ctl+64)
				var hdr [16]byte
				binary.LittleEndian.PutUint32(hdr[0:4], virtio.BlkTIn)
				binary.LittleEndian.PutUint64(hdr[8:16], sector)
				v.Mem.WriteAt(hdr[:], ctl)

				done := false
				env.Go("guest", func(p *sim.Proc) {
					defer env.Stop()
					base, pages, _ := v.Mem.AllocBuffer(uint32(len(written)))
					v.Mem.WriteAt(written, base)
					w := &vm.Req{Op: vm.OpWrite, LBA: sector, Blocks: uint32(len(written) / 512), Buf: base, BufPages: pages}
					if st := vm.SubmitAndWait(p, disk, v.VCPU(0), w); !st.OK() {
						t.Errorf("seeding write: %v", st)
						return
					}
					// Descriptors 0.. are the last the driver hands out.
					q.Ring.WriteDesc(0, virtio.Desc{Addr: ctl, Len: 16, Flags: descNext, Next: 1})
					for i, pc := range tc.data {
						q.Ring.WriteDesc(uint16(i+1), virtio.Desc{Addr: region + uint64(pc.page*page), Len: uint32(pc.len), Flags: descWrite | descNext, Next: uint16(i + 2)})
					}
					q.Ring.WriteDesc(uint16(len(tc.data)+1), virtio.Desc{Addr: ctl + 64, Len: 1, Flags: descWrite})
					q.Ring.Publish(0)
					// A well-formed read behind it kicks the backend.
					rb, rpages, _ := v.Mem.AllocBuffer(512)
					r := &vm.Req{Op: vm.OpRead, LBA: 0, Blocks: 1, Buf: rb, BufPages: rpages}
					if st := vm.SubmitAndWait(p, disk, v.VCPU(0), r); !st.OK() {
						t.Errorf("well-formed read: %v", st)
					}
					p.Sleep(sim.Millisecond)
					done = true
				})
				env.RunUntil(sim.Time(sim.Second))
				if !done {
					t.Fatal("the guest never finished")
				}

				var status [1]byte
				v.Mem.ReadAt(status[:], ctl+64)
				got := make([]byte, tc.pages*page)
				v.Mem.ReadAt(got, region)
				want := bytes.Repeat([]byte{sentinel}, len(got))
				wantStatus := byte(1)
				if !tc.failOn[b.name] {
					wantStatus = 0
					off := 0
					for _, pc := range tc.data {
						copy(want[pc.page*page:pc.page*page+pc.len], written[off:off+pc.len])
						off += pc.len
					}
				}
				if status[0] != wantStatus {
					t.Errorf("status %d, want %d", status[0], wantStatus)
				}
				if !tc.failOn[b.name] && !bytes.Equal(got, want) {
					t.Errorf("the read's pages differ from the data written there")
				}
				// Whatever the outcome, bytes outside the descriptors keep
				// the sentinel.
				inside := make([]bool, len(got))
				for _, pc := range tc.data {
					for i := pc.page * page; i < pc.page*page+pc.len; i++ {
						inside[i] = true
					}
				}
				for i := range got {
					if !inside[i] && got[i] != sentinel {
						t.Fatalf("guest byte %#x outside the chain's descriptors overwritten", region+uint64(i))
					}
				}
			})
		}
	}
}

// TestSPDKKickNotTaken has a guest kick although SPDK's vrings ask it not to
// (VRING_USED_F_NO_NOTIFY). The reactors poll, so the kick is not taken: the
// read completes at the instant, and after the events, it does when the
// guest honours the flag.
func TestSPDKKickNotTaken(t *testing.T) {
	read := func(kick bool) (sim.Time, uint64) {
		env := sim.New(1)
		defer env.Close()
		h := stack.NewHost(env, 12, 4, stack.DefaultParams(), device.NewMemStore(512))
		v := h.NewVM(1, 64<<20)
		disk := stack.NewSPDK(h).Provision(v, device.WholeNamespace(h.Dev, 1))
		disk.(interface{ Queues() []*virtio.Queue }).Queues()[0].Ring.SuppressKick = !kick
		base, pages, _ := v.Mem.AllocBuffer(512)
		r := &vm.Req{Op: vm.OpRead, LBA: 8, Blocks: 1, Buf: base, BufPages: pages}
		env.Go("guest", func(p *sim.Proc) {
			defer env.Stop()
			if st := vm.SubmitAndWait(p, disk, v.VCPU(0), r); !st.OK() {
				t.Errorf("read: %v", st)
			}
		})
		env.RunUntil(sim.Time(sim.Second))
		return r.Completed, env.Dispatched()
	}
	at, events := read(false)
	kickedAt, kickedEvents := read(true)
	if at == 0 || kickedAt != at || kickedEvents != events {
		t.Fatalf("kicked read done at %v after %d events, unkicked at %v after %d", kickedAt, kickedEvents, at, events)
	}
}
