package stack_test

import (
	"fmt"
	"testing"

	"nvmetro/internal/blockdev"
	"nvmetro/internal/device"
	"nvmetro/internal/fio"
	"nvmetro/internal/integrity"
	"nvmetro/internal/nvmeof"
	"nvmetro/internal/sim"
	"nvmetro/internal/stack"
	"nvmetro/internal/storfn"
)

// TestProtectedMirrorResyncsAfterOutage: a replicated volume provisioned by
// the stack, with and without integrity, degrades during a fabric outage and
// must drain back to InSync once the link returns. The resync engine only
// starts on a trigger, so the stack has to register it with the initiator's
// link-up hook; without that the mirror stays Degraded with every outage
// write dirty.
func TestProtectedMirrorResyncsAfterOutage(t *testing.T) {
	for _, integ := range []bool{true, false} {
		t.Run(fmt.Sprintf("integrity=%v", integ), func(t *testing.T) {
			env := sim.New(1)
			defer env.Close()
			p := stack.DefaultParams()
			p.Device.JitterPct, p.Device.TailProb = 0, 0
			pstore, sstore := device.NewMemStore(512), device.NewMemStore(512)
			h := stack.NewHost(env, 12, 4, p, pstore)
			v := h.NewVM(1, 64<<20)

			remote := stack.NewRemoteHost(env, 4, p.Device, sstore)
			remote.Link.ScheduleOutage(sim.Time(2*sim.Millisecond), 3*sim.Millisecond)
			secondary := remote.Secondary()
			spec := stack.Spec{Replicate: func(part device.Partition) blockdev.BlockDevice {
				ini := secondary(part).(*nvmeof.Initiator)
				// One 500 µs attempt, no retries: outage writes fail over to
				// degraded mode instead of waiting for the link-up requeue.
				if err := ini.SetRecovery(nvmeof.InitiatorRecovery{Timeout: 500 * sim.Microsecond, Backoff: 50 * sim.Microsecond}); err != nil {
					t.Fatal(err)
				}
				return ini
			}}
			if integ {
				scrub := integrity.DefaultScrubConfig()
				spec.Integrity = &scrub
			}
			vol := stack.NewNVMetro(h).Attach(v, device.WholeNamespace(h.Dev, 1), spec)

			fio.Run(env, h.CPU, []fio.Target{{Disk: vol.Disk, VM: v, VCPU: v.VCPU(0)}},
				fio.Config{Mode: fio.RandWrite, BlockSize: 4096, QD: 4, Duration: 10 * sim.Millisecond})
			env.RunUntil(env.Now().Add(200 * sim.Millisecond))

			rep, rs := vol.Replicator(), vol.Resyncer
			if rep.Degraded == 0 {
				t.Fatal("no write ran degraded: the outage did not bite")
			}
			if rs == nil {
				t.Fatal("a replicated volume has no resync engine")
			}
			if rs.State() != storfn.StateInSync || rep.Dirty.Blocks() != 0 || rs.Triggers == 0 {
				t.Fatalf("after the outage: state %v, %d dirty blocks, %d triggers, %d degraded writes; want InSync, 0 dirty",
					rs.State(), rep.Dirty.Blocks(), rs.Triggers, rep.Degraded)
			}
			if pstore.ContentCRC() != sstore.ContentCRC() {
				t.Fatal("the mirror legs differ after resync")
			}
		})
	}
}
