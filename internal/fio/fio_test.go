package fio_test

import (
	"testing"

	"nvmetro/internal/fio"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// instantDisk completes every request after a fixed virtual latency without
// touching a device — isolating the generator's own behaviour.
type instantDisk struct {
	env     *sim.Env
	latency sim.Duration
	reads   int
	writes  int
	lbas    []uint64
}

func (d *instantDisk) BlockSize() uint32 { return 512 }
func (d *instantDisk) Blocks() uint64    { return 1 << 30 }
func (d *instantDisk) SubmitFunc(vcpu *sim.Thread, r *vm.Req, then func()) {
	r.Submitted = d.env.Now()
	if r.Op == vm.OpRead {
		d.reads++
	} else {
		d.writes++
	}
	d.lbas = append(d.lbas, r.LBA)
	d.env.After(d.latency, func() { r.Complete(d.env, nvme.SCSuccess) })
	then()
}

func bed() (*sim.Env, *sim.CPU, *vm.VM) {
	env := sim.New(1)
	cpu := sim.NewCPU(env, 4)
	v := vm.New(env, 0, cpu, 0, 2, 256<<20, vm.DefaultVirtCosts())
	return env, cpu, v
}

func TestClosedLoopThroughputMatchesLatency(t *testing.T) {
	env, cpu, v := bed()
	defer env.Close()
	d := &instantDisk{env: env, latency: 100 * sim.Microsecond}
	r := fio.Run(env, cpu, []fio.Target{{Disk: d, VM: v, VCPU: v.VCPU(0)}},
		fio.Config{Mode: fio.RandRead, BlockSize: 512, QD: 1, Warmup: sim.Millisecond, Duration: 50 * sim.Millisecond})
	// QD1 at 100us/IO: ~10k IOPS.
	if got := 1e3 * r.KIOPS(); got < 9000 || got > 10100 {
		t.Fatalf("QD1 IOPS %f, want ~10000", got)
	}
	if med := r.Lat.Median(); med < 99000 || med > 110000 {
		t.Fatalf("median %d, want ~100us", med)
	}
}

func TestQDScalesThroughput(t *testing.T) {
	env, cpu, v := bed()
	defer env.Close()
	d := &instantDisk{env: env, latency: 100 * sim.Microsecond}
	r := fio.Run(env, cpu, []fio.Target{{Disk: d, VM: v, VCPU: v.VCPU(0)}},
		fio.Config{Mode: fio.RandRead, BlockSize: 512, QD: 16, Warmup: sim.Millisecond, Duration: 20 * sim.Millisecond})
	if got := 1e3 * r.KIOPS(); got < 140000 {
		t.Fatalf("QD16 IOPS %f, want ~160k", got)
	}
}

func TestRateLimitedMode(t *testing.T) {
	env, cpu, v := bed()
	defer env.Close()
	d := &instantDisk{env: env, latency: 20 * sim.Microsecond}
	r := fio.Run(env, cpu, []fio.Target{{Disk: d, VM: v, VCPU: v.VCPU(0)}},
		fio.Config{Mode: fio.RandRead, BlockSize: 512, QD: 8, RateIOPS: 10000,
			Warmup: sim.Millisecond, Duration: 50 * sim.Millisecond})
	if got := 1e3 * r.KIOPS(); got < 9000 || got > 11000 {
		t.Fatalf("rate-limited IOPS %f, want ~10000", got)
	}
	// Latency must reflect service time, not the rate interval.
	if med := r.Lat.Median(); med > 30000 {
		t.Fatalf("median %d at open-loop rate, want ~20us", med)
	}
}

func TestMixedModeSplitsOps(t *testing.T) {
	env, cpu, v := bed()
	defer env.Close()
	d := &instantDisk{env: env, latency: 10 * sim.Microsecond}
	fio.Run(env, cpu, []fio.Target{{Disk: d, VM: v, VCPU: v.VCPU(0)}},
		fio.Config{Mode: fio.RandRW, BlockSize: 512, QD: 4, Warmup: 0, Duration: 20 * sim.Millisecond})
	total := d.reads + d.writes
	frac := float64(d.reads) / float64(total)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("read fraction %.2f, want ~0.5", frac)
	}
}

func TestSequentialModeAdvances(t *testing.T) {
	env, cpu, v := bed()
	defer env.Close()
	d := &instantDisk{env: env, latency: 10 * sim.Microsecond}
	fio.Run(env, cpu, []fio.Target{{Disk: d, VM: v, VCPU: v.VCPU(0)}},
		fio.Config{Mode: fio.SeqRead, BlockSize: 4096, QD: 1, Warmup: 0, Duration: 5 * sim.Millisecond})
	if len(d.lbas) < 10 {
		t.Fatal("too few ops")
	}
	for i := 1; i < 10; i++ {
		if d.lbas[i] != d.lbas[i-1]+8 {
			t.Fatalf("not sequential at %d: %d -> %d", i, d.lbas[i-1], d.lbas[i])
		}
	}
}

func TestJobsGetDisjointRegions(t *testing.T) {
	env, cpu, v := bed()
	defer env.Close()
	d := &instantDisk{env: env, latency: 10 * sim.Microsecond}
	d2 := &instantDisk{env: env, latency: 10 * sim.Microsecond}
	fio.Run(env, cpu, []fio.Target{
		{Disk: d, VM: v, VCPU: v.VCPU(0)},
		{Disk: d2, VM: v, VCPU: v.VCPU(1)},
	}, fio.Config{Mode: fio.SeqWrite, BlockSize: 4096, QD: 1, Warmup: 0, Duration: 2 * sim.Millisecond})
	if d.lbas[0] == d2.lbas[0] {
		t.Fatal("jobs share a region start")
	}
}

func TestWorkSetBoundsOffsets(t *testing.T) {
	env, cpu, v := bed()
	defer env.Close()
	d := &instantDisk{env: env, latency: 5 * sim.Microsecond}
	ws := uint64(1 << 20) // 1 MiB = 2048 blocks
	fio.Run(env, cpu, []fio.Target{{Disk: d, VM: v, VCPU: v.VCPU(0)}},
		fio.Config{Mode: fio.RandRead, BlockSize: 512, QD: 4, WorkSet: ws,
			Warmup: 0, Duration: 5 * sim.Millisecond})
	for _, lba := range d.lbas {
		if lba >= ws/512 {
			t.Fatalf("offset %d beyond working set", lba)
		}
	}
}

func TestZipfSkewsOffsets(t *testing.T) {
	env, cpu, v := bed()
	defer env.Close()
	d := &instantDisk{env: env, latency: 5 * sim.Microsecond}
	ws := uint64(4 << 20) // 8192 blocks
	fio.Run(env, cpu, []fio.Target{{Disk: d, VM: v, VCPU: v.VCPU(0)}},
		fio.Config{Mode: fio.RandRead, BlockSize: 512, QD: 8, WorkSet: ws, Zipf: 1.2,
			Warmup: 0, Duration: 10 * sim.Millisecond})
	if len(d.lbas) < 1000 {
		t.Fatalf("only %d IOs issued", len(d.lbas))
	}
	// A zipf(1.2) stream concentrates mass at low slots: a large share of
	// all accesses must land in the first 1% of the region, and none may
	// escape it.
	hot, total := 0, 0
	for _, lba := range d.lbas {
		if lba >= ws/512 {
			t.Fatalf("offset %d beyond working set", lba)
		}
		total++
		if lba < ws/512/100 {
			hot++
		}
	}
	if frac := float64(hot) / float64(total); frac < 0.5 {
		t.Fatalf("zipf skew too weak: %.2f of accesses in the hottest 1%%", frac)
	}
}

func TestSharedOffsetsOverlapRegions(t *testing.T) {
	env, cpu, v := bed()
	defer env.Close()
	d := &instantDisk{env: env, latency: 10 * sim.Microsecond}
	d2 := &instantDisk{env: env, latency: 10 * sim.Microsecond}
	fio.Run(env, cpu, []fio.Target{
		{Disk: d, VM: v, VCPU: v.VCPU(0)},
		{Disk: d2, VM: v, VCPU: v.VCPU(1)},
	}, fio.Config{Mode: fio.SeqRead, BlockSize: 4096, QD: 1, SharedOffsets: true,
		Warmup: 0, Duration: 2 * sim.Millisecond})
	// Both jobs walk the same guest offsets of their own disks: identical
	// region starts, unlike the disjoint default.
	if d.lbas[0] != d2.lbas[0] {
		t.Fatalf("shared-offset jobs diverge at start: %d vs %d", d.lbas[0], d2.lbas[0])
	}
}

func TestWritePctSkewsMix(t *testing.T) {
	env, cpu, v := bed()
	defer env.Close()
	d := &instantDisk{env: env, latency: 10 * sim.Microsecond}
	fio.Run(env, cpu, []fio.Target{{Disk: d, VM: v, VCPU: v.VCPU(0)}},
		fio.Config{Mode: fio.RandRW, BlockSize: 512, QD: 4, WritePct: 5,
			Warmup: 0, Duration: 20 * sim.Millisecond})
	total := d.reads + d.writes
	frac := float64(d.writes) / float64(total)
	if frac < 0.01 || frac > 0.12 {
		t.Fatalf("write fraction %.3f, want ~0.05", frac)
	}
	if d.writes == 0 {
		t.Fatal("no writes at all")
	}
}

func TestBootProfileShape(t *testing.T) {
	cfg := fio.BootProfile(0, 10*sim.Millisecond)
	if !cfg.SharedOffsets || cfg.WritePct == 0 || cfg.Zipf <= 1 {
		t.Fatalf("boot profile misshapen: %+v", cfg)
	}
	env, cpu, v := bed()
	defer env.Close()
	d := &instantDisk{env: env, latency: 10 * sim.Microsecond}
	fio.Run(env, cpu, []fio.Target{{Disk: d, VM: v, VCPU: v.VCPU(0)}}, cfg)
	if d.reads == 0 || d.reads < d.writes {
		t.Fatalf("boot profile not read-mostly: %d reads / %d writes", d.reads, d.writes)
	}
}
