package stack_test

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nvmetro/internal/device"
	"nvmetro/internal/fio"
	"nvmetro/internal/sim"
	"nvmetro/internal/stack"
	"nvmetro/internal/vm"
)

var update = flag.Bool("update", false, "rewrite the event goldens under testdata/ from the current stacks")

// recDisk is a disk that hashes the instant and status of each completion,
// in completion order. It pushes no event of its own.
type recDisk struct {
	vm.Disk
	env   *sim.Env
	sum   hash.Hash64
	comps int
}

func (d *recDisk) SubmitFunc(vcpu *sim.Thread, r *vm.Req, then func()) {
	orig := r.OnDone
	r.OnDone = func(r *vm.Req) {
		r.OnDone = orig
		var b [10]byte
		binary.LittleEndian.PutUint64(b[:], uint64(r.Completed))
		binary.LittleEndian.PutUint16(b[8:], uint16(r.Status))
		d.sum.Write(b[:])
		d.comps++
		if orig != nil {
			orig(r)
		}
	}
	d.Disk.SubmitFunc(vcpu, r, then)
}

// baselineEvents runs the baseline mk builds under two seeded, rate-limited
// fio phases on one 2-vCPU VM — 4 KiB random read/write at QD8, then 8 KiB
// sequential writes at QD32 fast enough to queue, plug and merge — and
// returns one line per phase: I/Os and errors, events dispatched, the
// instant, the host's busy time per tag since the host was built, and a hash
// of every completion's instant and status.
func baselineEvents(name string, mk func(env *sim.Env, h *stack.Host) stack.Solution) []string {
	env := sim.New(1)
	defer env.Close()
	h := stack.NewHost(env, 12, 4, stack.DefaultParams(), device.NewStore(device.BackingMem, 512))
	start := h.CPU.Snapshot()
	v := h.NewVM(2, 64<<20)
	d := &recDisk{Disk: mk(env, h).Provision(v, device.WholeNamespace(h.Dev, 1)), env: env, sum: fnv.New64a()}
	phases := []struct {
		name string
		cfg  fio.Config
	}{
		{"randrw-4k-qd8-20k", fio.Config{Mode: fio.RandRW, BlockSize: 4096, QD: 8, RateIOPS: 20000, Warmup: sim.Millisecond, Duration: 10 * sim.Millisecond, WorkSet: 8 << 20}},
		{"seqwrite-8k-qd32-150k", fio.Config{Mode: fio.SeqWrite, BlockSize: 8192, QD: 32, RateIOPS: 150000, Warmup: sim.Millisecond, Duration: 4 * sim.Millisecond, WorkSet: 8 << 20}},
	}
	var lines []string
	for _, ph := range phases {
		res := fio.Run(env, h.CPU, fio.Targets(v, d, 2), ph.cfg)
		u := h.CPU.Since(start)
		var cpu []string
		for _, tag := range u.Tags() {
			cpu = append(cpu, fmt.Sprintf("%s:%d", tag, u.ByTag[tag]))
		}
		lines = append(lines, fmt.Sprintf("%s %s ops=%d errs=%d dispatched=%d end=%d comps=%d hash=%016x cpu=%s",
			name, ph.name, res.Ops, res.Errors, env.Dispatched(), env.Now(), d.comps, d.sum.Sum64(), strings.Join(cpu, ",")))
	}
	return lines
}

// TestBaselineEventGolden pins the baselines' event streams: for MDev, QEMU
// virtio-blk, vhost-scsi plain, over dm-crypt and over dm-mirror (an
// NVMe-oF secondary) and SPDK, the events dispatched, the I/O counts, the end
// instant, every host tag's busy time and the hash of every completion's
// instant and status under baselineEvents' two phases must match
// testdata/baseline_events.golden. Rewriting a baseline's loop — say from a
// process into continuations — must not move any of them; only hand-offs and
// spawns may change. Regenerate with
//
//	go test ./internal/stack/ -run TestBaselineEventGolden -update
//
// only for a change that is meant to alter the baselines' behaviour.
func TestBaselineEventGolden(t *testing.T) {
	key := make([]byte, 64)
	for i := range key {
		key[i] = byte(i*7 + 1)
	}
	var got []string
	for _, b := range []struct {
		name string
		mk   func(env *sim.Env, h *stack.Host) stack.Solution
	}{
		{"MDev", func(_ *sim.Env, h *stack.Host) stack.Solution { return stack.NewMDev(h) }},
		{"QEMU", func(_ *sim.Env, h *stack.Host) stack.Solution { return stack.NewQEMU(h) }},
		{"vhost-scsi", func(_ *sim.Env, h *stack.Host) stack.Solution { return stack.NewVhostSCSI(h) }},
		{"vhost-scsi+dm-crypt", func(_ *sim.Env, h *stack.Host) stack.Solution { return stack.NewVhostDMCrypt(h, key) }},
		{"vhost-scsi+dm-mirror", func(env *sim.Env, h *stack.Host) stack.Solution {
			remote := stack.NewRemoteHost(env, 4, h.Params.Device, device.NewStore(device.BackingMem, 512))
			return stack.NewVhostDMMirror(h, remote.Secondary())
		}},
		{"SPDK", func(_ *sim.Env, h *stack.Host) stack.Solution { return stack.NewSPDK(h) }},
	} {
		got = append(got, baselineEvents(b.name, b.mk)...)
	}
	checkGolden(t, "baseline_events.golden", got)
}

// checkGolden compares got, line by line, with testdata/name, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name string, got []string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d lines, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
}
