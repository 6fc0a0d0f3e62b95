package core_test

import (
	"bytes"
	"hash/crc32"
	"runtime"
	"testing"

	"nvmetro/internal/device"
	"nvmetro/internal/integrity"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// guardVM attaches a VM whose controller stamps and verifies through a fresh
// PI domain of its own.
func (r *rig) guardVM(t testing.TB, id int, part device.Partition) (*vm.VM, *vm.NVMeDisk, *integrity.Domain) {
	v, vc, disk := r.addVM(id, part)
	dom, err := integrity.NewDomain(512)
	if err != nil {
		t.Fatal(err)
	}
	vc.SetGuard(dom.Guard("guest"))
	return v, disk, dom
}

// pattern is n bytes no two blocks of which are alike.
func pattern(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i/512)*7 + byte(i)
	}
	return b
}

// TestGuardRejectsCorruptRead drives the controller's read verification over
// each PRP shape the staging walk takes — one page, PRP1+PRP2, a PRP list —
// the only boundary between a corrupt medium and the guest: clean data reads
// back OK, and one flipped block anywhere in the transfer fails the read with
// SCGuardCheck instead of reaching the guest as good data.
func TestGuardRejectsCorruptRead(t *testing.T) {
	for _, tc := range []struct {
		name    string
		size    int
		corrupt uint64 // block to flip, relative to the transfer
	}{
		{"single page", 4096, 3},
		{"PRP2", 8192, 15},
		{"PRP list 64 KiB", 64 << 10, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(1)
			v, disk, _ := r.guardVM(t, 0, device.WholeNamespace(r.dev, 1))
			const lba = 256
			r.run(t, func(p *sim.Proc) {
				src := pattern(1, tc.size)
				if st := doIO(p, v, disk, vm.OpWrite, lba, src); !st.OK() {
					t.Fatalf("write: %v", st)
				}
				got := make([]byte, tc.size)
				if st := doIO(p, v, disk, vm.OpRead, lba, got); !st.OK() || !bytes.Equal(got, src) {
					t.Fatalf("clean read: %v (data ok %v)", st, bytes.Equal(got, src))
				}
				blk := make([]byte, 512)
				r.store.ReadBlocks(lba+tc.corrupt, blk)
				blk[77] ^= 0x10
				r.store.WriteBlocks(lba+tc.corrupt, blk) // below the router: unstamped
				if st := doIO(p, v, disk, vm.OpRead, lba, got); st != nvme.SCGuardCheck {
					t.Fatalf("read over a corrupt block: %v, want %v", st, nvme.SCGuardCheck)
				}
				// The blocks before the corrupt one still read clean.
				head := got[:tc.corrupt*512]
				if st := doIO(p, v, disk, vm.OpRead, lba, head); !st.OK() || !bytes.Equal(head, src[:len(head)]) {
					t.Fatalf("clean prefix read: %v", st)
				}
			})
			if r.router.GuardErrors != 1 {
				t.Fatalf("GuardErrors = %d, want 1", r.router.GuardErrors)
			}
		})
	}
}

// stampedAs fails t unless dom holds the blocks of data at lba (by CRC) and
// total blocks in all.
func stampedAs(t *testing.T, who string, dom *integrity.Domain, lba uint64, data []byte, total uint64) {
	t.Helper()
	for i := 0; i < len(data)/512; i++ {
		rec, ok := dom.Record(lba + uint64(i))
		if want := crc32.ChecksumIEEE(data[i*512 : (i+1)*512]); !ok || rec.CRC != want {
			t.Fatalf("%s: block %d stamped %08x (%v), want %08x", who, lba+uint64(i), rec.CRC, ok, want)
		}
	}
	if dom.Stamped() != total {
		t.Fatalf("%s: %d blocks stamped, want %d", who, dom.Stamped(), total)
	}
}

// TestGuardStagingReuse: the worker's staging buffer is reused from one
// guarded command to the next, so a short write after a long one, and two
// tenants' writes interleaved on one shard, must each stamp exactly their own
// blocks — never a tail left over from a longer transfer or the other
// tenant's bytes.
func TestGuardStagingReuse(t *testing.T) {
	r := newRig(1) // one worker: both tenants stage through the same buffer
	parts := device.Carve(r.dev, 1, 2)
	va, da, doma := r.guardVM(t, 1, parts[0])
	vb, db, domb := r.guardVM(t, 2, parts[1])
	r.run(t, func(p *sim.Proc) {
		long := pattern(3, 64<<10)
		if st := doIO(p, va, da, vm.OpWrite, parts[0].Start, long); !st.OK() {
			t.Fatalf("64 KiB write: %v", st)
		}
		stampedAs(t, "64 KiB write", doma, parts[0].Start, long, 128)
		short := pattern(200, 4096)
		if st := doIO(p, va, da, vm.OpWrite, parts[0].Start+1000, short); !st.OK() {
			t.Fatalf("4 KiB write: %v", st)
		}
		stampedAs(t, "4 KiB write after 64 KiB", doma, parts[0].Start+1000, short, 128+8)

		// Two tenants, one shard, writes in flight together.
		const n = 24
		done := 0
		tenant := func(v *vm.VM, d *vm.NVMeDisk, base uint64, seed byte) {
			r.env.Go("tenant", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					size := 4096 << (i % 3) // 4, 8, 16 KiB: one page, PRP2, list
					if st := doIO(p, v, d, vm.OpWrite, base+uint64(i)*64, pattern(seed+byte(i), size)); !st.OK() {
						t.Errorf("tenant write %d: %v", i, st)
					}
				}
				done++
			})
		}
		tenant(va, da, parts[0].Start+2048, 10)
		tenant(vb, db, parts[1].Start+2048, 90)
		for done < 2 {
			p.Sleep(100 * sim.Microsecond)
		}
		var blocks uint64
		for i := 0; i < n; i++ {
			blocks += uint64(4096<<(i%3)) / 512
		}
		for i := 0; i < n; i++ {
			size := 4096 << (i % 3)
			stampedAs(t, "tenant A", doma, parts[0].Start+2048+uint64(i)*64, pattern(10+byte(i), size), 136+blocks)
			stampedAs(t, "tenant B", domb, parts[1].Start+2048+uint64(i)*64, pattern(90+byte(i), size), blocks)
		}
	})
}

// guardedHopAllocs is the heap allocations per QD1 hop of op, routed through
// the fast path, with or without a guard on the controller; the hops run
// warm (the guard's records and the worker's staging already sized).
func guardedHopAllocs(t *testing.T, guarded bool, op vm.Op) float64 {
	const warm, n = 64, 256
	r := newRig(1)
	v, vc, disk := r.addVM(1, device.WholeNamespace(r.dev, 1))
	if guarded {
		dom, _ := integrity.NewDomain(512)
		vc.SetGuard(dom.Guard("guest"))
	}
	base, pages, err := v.Mem.AllocBuffer(8192) // PRP1 + PRP2
	if err != nil {
		t.Fatal(err)
	}
	v.Mem.WriteAt(pattern(5, 8192), base)
	var mallocs uint64
	r.run(t, func(p *sim.Proc) {
		var ms runtime.MemStats
		for i := 0; i < warm+n; i++ {
			if i == warm {
				runtime.ReadMemStats(&ms)
				mallocs = ms.Mallocs
			}
			req := &vm.Req{Op: op, LBA: uint64(i%16) * 16, Blocks: 16, Buf: base, BufPages: pages}
			if st := vm.SubmitAndWait(p, disk, v.VCPU(0), req); !st.OK() {
				t.Fatalf("hop %d: %v", i, st)
			}
		}
		runtime.ReadMemStats(&ms)
		mallocs = ms.Mallocs - mallocs
	})
	return float64(mallocs) / n
}

// TestGuardedHopAllocs: protection info costs a routed hop CRC work, not
// garbage — a guarded read or write allocates no more than the same hop
// unguarded (it used to add a staging buffer and a segment slice to each).
func TestGuardedHopAllocs(t *testing.T) {
	for _, op := range []vm.Op{vm.OpRead, vm.OpWrite} {
		plain, guarded := guardedHopAllocs(t, false, op), guardedHopAllocs(t, true, op)
		// A quarter of an allocation per hop absorbs the runtime's own
		// background mallocs; the old staging cost two per hop.
		if guarded > plain+0.25 {
			t.Errorf("%v: guarded hop %.2f allocations, unguarded %.2f", op, guarded, plain)
		}
	}
}
