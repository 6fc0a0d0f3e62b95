package core

import (
	"fmt"

	"nvmetro/internal/ebpf"
	"nvmetro/internal/metrics"
	"nvmetro/internal/nvme"
	"nvmetro/internal/qos"
	"nvmetro/internal/sim"
)

// QoS integration: when an arbiter is installed, the router workers stop
// draining shadowed submission queues unconditionally and instead run an
// arbitrated admission pass per poll round (gatherQoS). Commands denied by
// a token bucket or the admission controller stay in their VSQ — the guest
// driver blocks on the full ring, so throttling backpressures end to end
// without drops.

// EnableQoS installs a WFQ arbiter per router worker. Each shard
// arbitrates only among its own tenants — tenant state never crosses a
// shard boundary — and fleet-wide views merge the per-shard snapshots
// (QoSSnapshot/CollectQoS). Controllers already attached are registered
// as tenants with default (unlimited, weight-1) contracts; controllers
// attached later register automatically. Returns the first worker's
// arbiter (the whole arbiter when the router has a single worker, as the
// shared-stack evaluation setups do). Calling EnableQoS twice returns the
// existing arbiter.
func (r *Router) EnableQoS(cfg qos.Config) *qos.Arbiter {
	if !r.qosEnabled() {
		for _, w := range r.workers {
			w.qos = qos.NewArbiter(cfg)
			w.rewired = true
			for _, vc := range w.vcs {
				vc.registerTenant()
			}
		}
	}
	return r.workers[0].qos
}

// qosEnabled reports whether EnableQoS has run.
func (r *Router) qosEnabled() bool { return r.workers[0].qos != nil }

// QoS returns the first worker's arbiter (nil when QoS is disabled).
// Routers with one worker — every shared-stack evaluation setup — have
// exactly one arbiter, so this is the complete QoS state there. Sharded
// fleets use QoSSnapshot/CollectQoS for the merged view.
func (r *Router) QoS() *qos.Arbiter { return r.workers[0].qos }

// QoSArbiters returns every per-shard arbiter (nil when QoS is disabled).
func (r *Router) QoSArbiters() []*qos.Arbiter {
	if !r.qosEnabled() {
		return nil
	}
	out := make([]*qos.Arbiter, len(r.workers))
	for i, w := range r.workers {
		out[i] = w.qos
	}
	return out
}

// QoSSnapshot merges the per-shard arbiter snapshots into one fleet-wide
// view. Tenants are disjoint across shards (a controller registers only
// with its owning worker's arbiter), so concatenation is the merge.
func (r *Router) QoSSnapshot(now sim.Time) []qos.TenantSnapshot {
	var out []qos.TenantSnapshot
	for _, w := range r.workers {
		if w.qos != nil {
			out = append(out, w.qos.Snapshot(now)...)
		}
	}
	return out
}

// CollectQoS folds every per-shard arbiter's counters into cs.
func (r *Router) CollectQoS(cs *metrics.CounterSet) {
	for _, w := range r.workers {
		if w.qos != nil {
			w.qos.Collect(cs)
		}
	}
}

// registerTenant enrolls the controller with its owning shard's arbiter.
func (vc *Controller) registerTenant() {
	vc.tenant = vc.w.qos.AddTenant(fmt.Sprintf("vm%d", vc.vm.ID), qos.TenantConfig{})
}

// SetQoS replaces the controller's QoS contract in place (weight, rate
// limits, SLO target). Requires EnableQoS on the router first.
func (vc *Controller) SetQoS(cfg qos.TenantConfig) {
	if vc.w.qos == nil {
		panic("core: SetQoS requires Router.EnableQoS")
	}
	vc.w.qos.Configure(vc.tenant, cfg)
}

// Tenant returns the controller's arbiter state (nil when QoS is
// disabled).
func (vc *Controller) Tenant() *qos.Tenant { return vc.tenant }

// cmdBytes is the payload size the arbiter charges for a command;
// non-I/O commands charge the one-unit minimum.
func cmdBytes(vq *vqState, cmd *nvme.Command) int {
	if !cmd.IsIO() {
		return 0
	}
	return int(uint64(cmd.Blocks()) * uint64(vq.vc.part.BlockSize()))
}

// qosAdmitBatch bounds how many commands one poll round may admit. The
// worker charges a whole round's CPU before any effect lands, so an
// unbounded round would serialize a deep backlog ahead of a freshly
// admitted command and erase the arbiter's interleaving; a small batch is
// the WFQ pacing granularity.
const qosAdmitBatch = 8

// gatherQoS is the arbitrated submission pass: repeatedly scan every
// attached VSQ head, pick the eligible tenant with the smallest virtual
// start tag, and admit its command, until no head is eligible or the
// round's batch is full. Returns the number of commands admitted and the
// backlog left behind in the rings (the worker must keep busy-polling
// while backlog remains, so simulated time advances and buckets refill —
// parking would deadlock the guest against a bucket that can never
// refill).
func (w *worker) gatherQoS(effects *[]effect, work *sim.Duration) (admitted, backlog int) {
	q := w.qos
	now := w.r.env.Now()
	q.Tick(now)
	var cmd nvme.Command
	firstScan := true
	for admitted < qosAdmitBatch {
		var best *vqState
		var bestCmd nvme.Command
		var bestBytes int
		for _, vc := range w.vcs {
			for _, vq := range vc.vqs {
				if !vq.vsq.Peek(&cmd) {
					continue
				}
				nb := cmdBytes(vq, &cmd)
				// Only the round's first scan feeds the Throttled/Deferred
				// counters: later scans revisit the same heads, and counting
				// them again would tally scan attempts, not deferred
				// commands.
				if firstScan {
					if !q.Eligible(vc.tenant, nb, now) {
						continue
					}
				} else if !q.Admissible(vc.tenant, nb, now) {
					continue
				}
				if best == nil || q.Before(vc.tenant, best.vc.tenant) {
					best, bestCmd, bestBytes = vq, cmd, nb
				}
			}
		}
		firstScan = false
		if best == nil {
			break
		}
		best.vsq.Pop(&bestCmd) // consume the admitted head
		vc := best.vc
		vc.outstanding++
		admitted++
		base := q.Serve(vc.tenant, bestBytes, now)
		req := &request{vq: best, gcid: bestCmd.CID(), cmd: bestCmd, t0: now, qosBase: base}
		*effects = append(*effects, w.admit(req, work))
	}
	for _, vc := range w.vcs {
		for _, vq := range vc.vqs {
			backlog += int(vq.vsq.Len())
		}
	}
	return admitted, backlog
}

// chargeClass applies the classifier-tagged scheduling class to the
// request's admission charge; runs right after the HookVSQ classification.
func (w *worker) chargeClass(req *request, class qos.Class) {
	if ten := req.vq.vc.tenant; ten != nil {
		w.qos.ChargeClass(ten, req.qosBase, class)
	}
}

// NewQoSClassMap builds the standard per-opcode class policy map for
// class-tagging classifiers: the entry index is the NVMe opcode and the
// first byte of the value is the qos.Class to tag. All opcodes default to
// ClassDefault; SetOpcodeClass installs exceptions.
func NewQoSClassMap() *ebpf.ArrayMap {
	return ebpf.NewArrayMap(8, 256)
}

// SetOpcodeClass installs a class policy for one opcode in a map built by
// NewQoSClassMap.
func SetOpcodeClass(m *ebpf.ArrayMap, op uint8, class qos.Class) {
	m.SetU64(int(op), 0, uint64(class))
}
