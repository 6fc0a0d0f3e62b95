package stack_test

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"nvmetro/internal/blockdev"
	"nvmetro/internal/device"
	"nvmetro/internal/fault"
	"nvmetro/internal/fio"
	"nvmetro/internal/integrity"
	"nvmetro/internal/metrics"
	"nvmetro/internal/nvmeof"
	"nvmetro/internal/sim"
	"nvmetro/internal/stack"
	"nvmetro/internal/supervise"
)

// daemonWorkSet is the guest's footprint in every daemon scenario: small
// and zipf-skewed, so the scrubber's reads keep meeting the guest's writes.
const daemonWorkSet = 2 << 20

// daemonRig is one volume whose background daemons a scenario drives.
type daemonRig struct {
	env  *sim.Env
	h    *stack.Host
	vol  *stack.Volume
	disk *recDisk
	cpu  sim.CPUSnapshot
}

// newDaemonRig attaches one 2-vCPU VM's volume under spec on a host over
// store; tune, when set, adjusts the host before the attach.
func newDaemonRig(env *sim.Env, store device.Store, spec stack.Spec, tune func(h *stack.Host)) *daemonRig {
	h := stack.NewHost(env, 12, 4, stack.DefaultParams(), store)
	if tune != nil {
		tune(h)
	}
	r := &daemonRig{env: env, h: h, cpu: h.CPU.Snapshot()}
	v := h.NewVM(2, 64<<20)
	r.vol = stack.NewNVMetro(h).Attach(v, device.WholeNamespace(h.Dev, 1), spec)
	r.disk = &recDisk{Disk: r.vol.Disk, env: env, sum: fnv.New64a()}
	return r
}

// mirrorTo returns a Spec.Replicate factory onto a remote host over store
// with the given outages; each initiator gives up on a command after one
// 500 µs attempt, so outage writes run degraded.
func mirrorTo(env *sim.Env, store device.Store, outages ...[2]sim.Duration) func(device.Partition) blockdev.BlockDevice {
	remote := stack.NewRemoteHost(env, 4, stack.DefaultParams().Device, store)
	for _, o := range outages {
		remote.Link.ScheduleOutage(sim.Time(0).Add(o[0]), o[1])
	}
	return func(part device.Partition) blockdev.BlockDevice {
		ini := remote.Secondary()(part).(*nvmeof.Initiator)
		if err := ini.SetRecovery(nvmeof.InitiatorRecovery{Timeout: 500 * sim.Microsecond, Backoff: 50 * sim.Microsecond}); err != nil {
			panic(err)
		}
		return ini
	}
}

// run drives the rig's VM with one seeded fio phase of d.
func (r *daemonRig) run(mode fio.Mode, d sim.Duration) fio.Result {
	v := r.vol.VM
	return fio.Run(r.env, r.h.CPU, fio.Targets(v, r.disk, 2), fio.Config{
		Mode: mode, BlockSize: 4096, QD: 8, Warmup: 500 * sim.Microsecond, Duration: d,
		WorkSet: daemonWorkSet, Zipf: 1.2,
	})
}

// settle runs the simulation for d more, triggering a degraded mirror's
// resync every millisecond.
func (r *daemonRig) settle(d sim.Duration) {
	end := r.env.Now().Add(d)
	for r.env.Now() < end {
		if rs := r.vol.Resyncer; rs != nil {
			rs.Trigger()
		}
		r.env.RunUntil(r.env.Now().Add(sim.Millisecond))
	}
}

// line renders the rig's record: events dispatched, the instant, the
// completions and the hash of their instants and statuses, the daemons'
// counters and the host's busy time per tag since the rig was built; and
// the counters, cs with the daemons' added.
func (r *daemonRig) line(name string, seed int64, cs *metrics.CounterSet) (string, *metrics.CounterSet) {
	if s := r.vol.Scrubber; s != nil {
		s.Collect(cs)
	}
	if rs := r.vol.Resyncer; rs != nil {
		rs.Collect(cs)
	}
	if sup := r.vol.Supervisor; sup != nil {
		sup.Collect(cs)
	}
	u := r.h.CPU.Since(r.cpu)
	var cpu []string
	for _, tag := range u.Tags() {
		cpu = append(cpu, fmt.Sprintf("%s:%d", tag, u.ByTag[tag]))
	}
	return fmt.Sprintf("%s seed=%d dispatched=%d end=%d comps=%d hash=%016x cpu=%s %s",
		name, seed, r.env.Dispatched(), r.env.Now(), r.disk.comps, r.disk.sum.Sum64(), strings.Join(cpu, ","), cs), cs
}

// daemonScenarios are the background daemons' scenarios: each builds its
// rig at a seed, runs it and returns its line and counters. Every counter
// in want must be non-zero at one seed at least: the scenario exercised
// what it is named for.
var daemonScenarios = []struct {
	name string
	want []string
	run  func(seed int64) (string, *metrics.CounterSet)
}{
	// Continuous scrub over a store that rots, tears and loses the guest's
	// writes, with no replica to repair from: suspects settle as races or
	// are quarantined.
	{"scrub-corrupt", []string{"scrub.races", "scrub.quarantined"}, func(seed int64) (string, *metrics.CounterSet) {
		plan := fault.NewPlan(seed).WithBitRot(0.02, 4).WithTornWrites(0.02, 4).WithLostWrites(0.02, 4)
		store := integrity.NewCorruptingStore(device.NewMemStore(512), plan, "store", 512, daemonWorkSet/512)
		scrub := integrity.ScrubConfig{Rate: 400e6, Interval: sim.Millisecond}
		env := sim.New(seed)
		r := newDaemonRig(env, store, stack.Spec{Integrity: &scrub}, nil)
		defer r.env.Close()
		r.vol.Scrubber.Start()
		r.run(fio.RandRW, 8*sim.Millisecond)
		r.vol.Scrubber.Stop()
		r.settle(6 * sim.Millisecond)
		return r.line("scrub-corrupt", seed, &metrics.CounterSet{})
	}},
	// Both legs rot: the scrubber rewrites primary damage from the replica
	// and hands replica damage to the resync engine (NoteDivergence).
	{"replica-divergence", []string{"scrub.races", "scrub.repaired", "scrub.replica_bad", "rs.passes"}, func(seed int64) (string, *metrics.CounterSet) {
		pplan := fault.NewPlan(seed).WithBitRot(0.01, 3)
		splan := fault.NewPlan(seed+100).WithBitRot(0.05, 6).WithTornWrites(0.02, 4)
		pstore := integrity.NewCorruptingStore(device.NewMemStore(512), pplan, "primary", 512, daemonWorkSet/512)
		sstore := integrity.NewCorruptingStore(device.NewMemStore(512), splan, "replica", 512, daemonWorkSet/512)
		env := sim.New(seed)
		scrub := integrity.ScrubConfig{Rate: 400e6, Interval: sim.Millisecond}
		r := newDaemonRig(env, pstore, stack.Spec{Integrity: &scrub, Replicate: mirrorTo(env, sstore)}, nil)
		defer r.env.Close()
		r.vol.Scrubber.Start()
		r.run(fio.RandRW, 8*sim.Millisecond)
		r.vol.Scrubber.Stop()
		r.vol.Scrubber.Trigger()
		r.settle(8 * sim.Millisecond)
		return r.line("replica-divergence", seed, &metrics.CounterSet{})
	}},
	// A fabric outage degrades the mirror; its link-up starts a slow
	// resync, and a second outage aborts that pass before the next link-up
	// triggers it again.
	{"outage-mid-resync", []string{"rs.aborts", "rs.passes"}, func(seed int64) (string, *metrics.CounterSet) {
		env := sim.New(seed)
		spec := stack.Spec{Replicate: mirrorTo(env, device.NewMemStore(512),
			[2]sim.Duration{2 * sim.Millisecond, 2 * sim.Millisecond},
			[2]sim.Duration{5 * sim.Millisecond, 2 * sim.Millisecond})}
		r := newDaemonRig(env, device.NewMemStore(512), spec, func(h *stack.Host) { h.Params.Resync.Rate = 40e6 })
		defer r.env.Close()
		r.run(fio.RandWrite, 9*sim.Millisecond)
		r.settle(30 * sim.Millisecond)
		return r.line("outage-mid-resync", seed, &metrics.CounterSet{})
	}},
	// The replicator's UIF crashes: the watchdog fails it over to the
	// dirty-tracking fast path, restarts it, and the promotion kicks the
	// resync of what ran degraded.
	{"uif-crash", []string{"sup.replicator.restarts", "rs.passes"}, func(seed int64) (string, *metrics.CounterSet) {
		env := sim.New(seed)
		pol := supervise.DefaultPolicy()
		pol.HeartbeatInterval, pol.StallThreshold = 50*sim.Microsecond, 300*sim.Microsecond
		pol.RestartBackoffCap, pol.Seed = sim.Millisecond, seed
		spec := stack.Spec{Supervise: &pol, Replicate: mirrorTo(env, device.NewMemStore(512))}
		r := newDaemonRig(env, device.NewMemStore(512), spec, nil)
		defer r.env.Close()
		inj := fault.NewPlan(seed).WithUIFCrash(0.005, 1).Injector("uif-replicator")
		r.vol.Supervisor.SetFaultInjector(inj)
		r.run(fio.RandRW, 8*sim.Millisecond)
		r.settle(10 * sim.Millisecond)
		cs := &metrics.CounterSet{}
		inj.Collect(cs)
		return r.line("uif-crash", seed, cs)
	}},
}

// TestDaemonEventGolden pins the background daemons' event streams — the
// integrity scrubber, the mirror's resync engine and the UIF supervisor —
// as TestBaselineEventGolden pins the baselines': for each of
// daemonScenarios at seeds 1, 3 and 7, the events dispatched, the end
// instant, the hash of every completion's instant and status, the daemons'
// counters and every host tag's busy time must match
// testdata/daemon_events.golden. Rewriting a daemon — say from a process
// into continuations — must not move any of them. Several seeds, because a
// daemon's rarer branches (a recheck racing a guest write, an abort
// landing mid-copy) need not run at any one. Regenerate with
//
//	go test ./internal/stack/ -run TestDaemonEventGolden -update
//
// only for a change that is meant to alter the daemons' behaviour.
func TestDaemonEventGolden(t *testing.T) {
	var got []string
	for _, sc := range daemonScenarios {
		var sum metrics.CounterSet
		for _, seed := range []int64{1, 3, 7} {
			line, cs := sc.run(seed)
			got = append(got, line)
			sum.Merge(cs)
		}
		for _, name := range sc.want {
			if sum.Get(name) == 0 {
				t.Errorf("%s: %s is 0 at every seed", sc.name, name)
			}
		}
	}
	checkGolden(t, "daemon_events.golden", got)
}
