package nvmetro_test

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"testing"

	"nvmetro"
	"nvmetro/internal/nvme"
	"nvmetro/internal/supervise"
	"nvmetro/internal/vm"
)

// confineBlocks is each tenant's partition size in TestConfinementEveryStack:
// small enough to fingerprint the neighbours' whole extents around every
// command, larger than the longest hostile range.
const confineBlocks = 2048

// TestConfinementEveryStack: a tenant cannot reach outside its partition on
// any stack, with any ranged command, however its guest picks the LBA. The
// tenant sits on the middle of three partitions; every hostile command must
// complete (no hang) with an error, leave both neighbours' extents and the
// replication secondary byte-identical, leave nothing outstanding, and the
// tenant's next in-range write must still round-trip.
func TestConfinementEveryStack(t *testing.T) {
	const top = ^uint64(0)
	cells := []struct {
		lba    uint64
		blocks uint32
	}{
		{top, 1},          // lba+blocks wraps to 0
		{top, 2},          // wraps to 1
		{top - 499, 1000}, // wraps onto the first 500 blocks of the disk
		{confineBlocks, 1},
		{confineBlocks - 1, 2},
		{confineBlocks - 1, 0}, // trim only: 0-based NLB has no "none"
	}
	degraded := nvmetro.DefaultSupervisePolicy()
	degraded.RestartBackoff, degraded.RestartBackoffCap = 10*nvmetro.Second, 0 // stay degraded
	cache := nvmetro.DefaultCacheParams()

	for _, tc := range []struct {
		name      string
		baseline  string
		spec      func(remote *nvmetro.RemoteHost) nvmetro.Spec
		killFirst bool
	}{
		{name: "plain", spec: func(*nvmetro.RemoteHost) nvmetro.Spec { return nvmetro.Spec{} }},
		{name: "encrypt", spec: func(*nvmetro.RemoteHost) nvmetro.Spec {
			return nvmetro.Spec{Encrypt: &nvmetro.Encryption{Key: testKey}}
		}},
		{name: "cache", spec: func(*nvmetro.RemoteHost) nvmetro.Spec { return nvmetro.Spec{Cache: &cache} }},
		{name: "replicate", spec: func(r *nvmetro.RemoteHost) nvmetro.Spec { return nvmetro.Spec{Replicate: r} }},
		{name: "replicate-degraded", killFirst: true, spec: func(r *nvmetro.RemoteHost) nvmetro.Spec {
			return nvmetro.Spec{Replicate: r, Supervise: &degraded}
		}},
		{name: "mdev", baseline: nvmetro.BaselineMDev},
		{name: "qemu", baseline: nvmetro.BaselineQEMU},
		{name: "vhost-scsi", baseline: nvmetro.BaselineVhostSCSI},
		{name: "spdk", baseline: nvmetro.BaselineSPDK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := nvmetro.Defaults()
			store := nvmetro.NewMemStore(512)
			cfg.Store = store
			cfg.Params.Device.Blocks = 3 * confineBlocks
			sys := nvmetro.NewSystem(cfg)
			defer sys.Close()
			parts := sys.CarveDisk(3)
			part := parts[1]
			for _, nb := range []nvmetro.Partition{parts[0], parts[2]} {
				fill := make([]byte, nb.Bytes())
				for i := range fill {
					fill[i] = byte(i*7 + i>>9 + 1)
				}
				store.WriteBlocks(nb.Start, fill)
			}
			extent := func(nb nvmetro.Partition) uint32 {
				buf := make([]byte, nb.Bytes())
				store.ReadBlocks(nb.Start, buf)
				return crc32.ChecksumIEEE(buf)
			}

			guest := sys.NewVM(1, 64<<20)
			var vol *nvmetro.Volume
			var secondary *nvmetro.MemStore
			var err error
			if tc.baseline != "" {
				vol, err = sys.AttachBaseline(tc.baseline, guest, part)
			} else {
				remote := sys.NewRemoteHost(2)
				secondary = remote.Dev.Namespace(1).Store.(*nvmetro.MemStore)
				vol, err = sys.Attach(guest, part, tc.spec(remote))
			}
			if err != nil {
				t.Fatal(err)
			}
			// What a hostile command may not move.
			untouched := func() [3]uint32 {
				fp := [3]uint32{extent(parts[0]), extent(parts[2])}
				if secondary != nil {
					fp[2] = secondary.ContentCRC()
				}
				return fp
			}

			cell := "setup"
			finished := sys.Run(30*nvmetro.Second, func(p *nvmetro.Proc) {
				vcpu := guest.VCPU(0)
				base, pages, err := guest.Mem.AllocBuffer(1000 * 512)
				if err != nil {
					t.Error(err)
					return
				}
				submit := func(r *nvmetro.Req) (nvme.Status, bool) {
					r.Buf, r.BufPages = base, pages
					vol.Disk.SubmitFunc(vcpu, r, func() {})
					ok := await(p, r.Done)
					return r.Status, ok
				}
				// roundTrip is the tenant's in-range traffic: it must keep
				// working whatever was thrown at the stack before.
				seq := byte(0)
				roundTrip := func() {
					seq++
					want := bytes.Repeat([]byte{seq, ^seq}, 2048)
					guest.Mem.WriteAt(want, base)
					if st, ok := submit(&nvmetro.Req{Op: vm.OpWrite, LBA: 16, Blocks: 8}); !ok || !st.OK() {
						t.Errorf("%s: then an in-range write: %v (completed: %v)", cell, st, ok)
					}
					guest.Mem.WriteAt(make([]byte, len(want)), base)
					got := make([]byte, len(want))
					if st, ok := submit(&nvmetro.Req{Op: vm.OpRead, LBA: 16, Blocks: 8}); !ok || !st.OK() {
						t.Errorf("%s: then an in-range read: %v (completed: %v)", cell, st, ok)
					} else if guest.Mem.ReadAt(got, base); !bytes.Equal(got, want) {
						t.Errorf("%s: then an in-range write did not read back", cell)
					}
				}

				if tc.killFirst {
					// A dead UIF strands the next write; the watchdog fails
					// over and the degraded classifier takes the controller.
					vol.Supervisor.Attachment().Kill()
					roundTrip()
					if st := vol.Supervisor.State(); st != supervise.StateDegraded {
						t.Errorf("supervisor is %v, want degraded", st)
						return
					}
				}

				type hostile struct {
					name string
					do   func(lba uint64, blocks uint32) (nvme.Status, bool)
				}
				viaDisk := func(op vm.Op) func(uint64, uint32) (nvme.Status, bool) {
					return func(lba uint64, blocks uint32) (nvme.Status, bool) {
						return submit(&nvmetro.Req{Op: op, LBA: lba, Blocks: blocks})
					}
				}
				ops := []hostile{{"read", viaDisk(vm.OpRead)}, {"write", viaDisk(vm.OpWrite)}, {"trim", viaDisk(vm.OpTrim)}}
				if vol.Ctrl != nil {
					// The guest driver has no write-zeroes; an NVMe guest can
					// still put one in a queue of its own.
					ops = append(ops, hostile{"write-zeroes", rawQueue(p, vol.Ctrl, nvme.OpWriteZeroes)})
				}
				for _, op := range ops {
					for _, c := range cells {
						if c.blocks == 0 && op.name != "trim" {
							continue
						}
						cell = fmt.Sprintf("%s(%#x, %d)", op.name, c.lba, c.blocks)
						before := untouched()
						st, completed := op.do(c.lba, c.blocks)
						switch {
						case !completed:
							t.Errorf("%s: never completed", cell)
						case st.OK():
							t.Errorf("%s: completed OK", cell)
						}
						if after := untouched(); after != before {
							t.Errorf("%s: neighbours/secondary fingerprints %08x -> %08x", cell, before, after)
						}
						if vol.Ctrl != nil && vol.Ctrl.Outstanding() != 0 {
							t.Errorf("%s: %d commands outstanding", cell, vol.Ctrl.Outstanding())
						}
						roundTrip()
					}
				}
			})
			if !finished {
				t.Fatalf("did not finish; last cell %s", cell)
			}
		})
	}
}

// await polls done on the virtual clock for up to 100 ms, so that a command
// the stack never completes fails its cell, not the whole run.
func await(p *nvmetro.Proc, done func() bool) bool {
	for deadline := p.Now().Add(100 * nvmetro.Millisecond); !done(); p.Sleep(20 * nvmetro.Microsecond) {
		if p.Now() >= deadline {
			return false
		}
	}
	return true
}

// rawQueue gives the guest a queue pair of its own on vc and returns a
// function issuing one data-less ranged command of the given opcode on it.
func rawQueue(p *nvmetro.Proc, vc *nvmetro.Controller, opcode uint8) func(lba uint64, blocks uint32) (nvme.Status, bool) {
	qp := vc.CreateQP(4)
	vc.SetIRQ(qp.SQ.ID, func() {})
	cid := uint16(0)
	return func(lba uint64, blocks uint32) (nvme.Status, bool) {
		var cmd nvme.Command
		cid++
		cmd.SetOpcode(opcode)
		cmd.SetCID(cid)
		cmd.SetNSID(1)
		cmd.SetSLBA(lba)
		cmd.SetNLB(uint16(blocks - 1))
		qp.SQ.Push(&cmd)
		vc.Ring(qp.SQ.ID)
		var e nvme.Completion
		ok := await(p, func() bool { return qp.CQ.Pop(&e) })
		return e.Status(), ok
	}
}
