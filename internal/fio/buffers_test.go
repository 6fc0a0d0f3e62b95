package fio

import (
	"bytes"
	"testing"

	"nvmetro/internal/guestmem"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// TestJobBuffersPackLikeIomem: a block size that divides the page packs a
// job's slots into one region, slot s at region + s·BlockSize, so a 512 B,
// QD128 job takes 16 pages and each slot lies inside one page. 4 KiB,
// 128 KiB and 1,536 B slots keep the page-aligned layout of one buffer of
// whole pages per slot: the same addresses and page counts. Every slot holds
// its own fill pattern, so no two overlap.
func TestJobBuffersPackLikeIomem(t *testing.T) {
	const pg = guestmem.PageSize
	for _, tc := range []struct {
		bs        uint32
		qd        int
		wantPages uint64
	}{
		{512, 128, 16},
		{4096, 8, 8},
		{128 << 10, 4, 4 * 32},
		{1536, 8, 8},
	} {
		env := sim.New(1)
		v := vm.New(env, 0, sim.NewCPU(env, 1), 0, 1, 64<<20, vm.DefaultVirtCosts())
		start := v.Mem.Allocated() + pg // the bump allocator's next page
		groups := []Group{{
			Targets: []Target{{Disk: &scriptDisk{env: env}, VM: v, VCPU: v.VCPU(0)}},
			Cfg:     Config{Mode: RandRead, BlockSize: tc.bs, QD: tc.qd},
		}}
		j := newJobs(env, groups, 0, 0)[0][0]
		if got := (v.Mem.Allocated() + pg - start) / pg; got != tc.wantPages {
			t.Errorf("bs %d qd %d: %d guest pages allocated, want %d", tc.bs, tc.qd, got, tc.wantPages)
		}
		if len(j.bufs) != tc.qd || len(j.pages) != tc.qd {
			t.Fatalf("bs %d: %d buffers, %d page lists for qd %d", tc.bs, len(j.bufs), len(j.pages), tc.qd)
		}
		packed := pg%tc.bs == 0
		stride := uint64(tc.bs)
		npages := 1
		if !packed {
			npages = int((tc.bs + pg - 1) / pg)
			stride = uint64(npages) * pg
		}
		got := make([]byte, tc.bs)
		for s, base := range j.bufs {
			if want := start + uint64(s)*stride; base != want {
				t.Fatalf("bs %d slot %d at %#x, want %#x", tc.bs, s, base, want)
			}
			pages := j.pages[s]
			if len(pages) != npages || pages[0] != base {
				t.Fatalf("bs %d slot %d: pages %#x, want %d from %#x", tc.bs, s, pages, npages, base)
			}
			for k := 1; k < npages; k++ {
				if pages[k] != base+uint64(k)*pg {
					t.Fatalf("bs %d slot %d: page %d at %#x", tc.bs, s, k, pages[k])
				}
			}
			if packed && base/pg != (base+uint64(tc.bs)-1)/pg {
				t.Fatalf("bs %d slot %d [%#x,+%d) crosses a page", tc.bs, s, base, tc.bs)
			}
			want := make([]byte, tc.bs)
			for k := range want {
				want[k] = byte(k*7 + s)
			}
			if err := v.Mem.ReadAt(got, base); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("bs %d slot %d does not hold its own fill (err %v)", tc.bs, s, err)
			}
		}
		env.Close()
	}
}
