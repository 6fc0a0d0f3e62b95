// Package shard is the per-core sharded dispatch subsystem: a fleet of
// router workers, one per host core, replacing the single shared router
// loop for multi-tenant stacks. The dispatch machinery is core.Router's own
// (a router's workers are the shards); this package holds the control-plane
// view of a sharded router and the subsystem's tests. Its lock-free ring
// (shard/ring) is no longer the router's fan-in; only the benchmark's
// probes time it.
//
// Each shard owns its tenants exclusively — their VSQ/VCQ pairs, QoS
// arbiter state and promotion decisions — and runs its own
// poll/classify/dispatch cycle on its own host thread. Shards never take
// a cross-shard lock: kernel-path completions and control-plane posts fan
// into the owning shard's two inboxes, which its next poll round drains
// (the simulator runs one process at a time), and fleet-wide QoS views
// merge the per-shard arbiter snapshots (tenants are disjoint across
// shards, so concatenation is the merge).
//
// The fleet also hosts the adaptive path-promotion tier: when static
// analysis proves a tenant's classifier always returns the pure fast-path
// verdict, that tenant's hop collapses to a direct SQ→HSQ mapping and
// classifier execution is elided; a classifier hot-swap demotes the
// tenant synchronously before the new program can see a command.
package shard

import (
	"fmt"
	"strings"

	"nvmetro/internal/core"
)

// Fleet is the control-plane view of a sharded router. Placement
// (Router.Attach), promotion and the per-shard QoS merge live on the router
// itself.
type Fleet struct {
	router *core.Router
}

// Of returns the fleet view of r.
func Of(r *core.Router) *Fleet { return &Fleet{router: r} }

// Router exposes the underlying router for policy tuning and stats.
func (f *Fleet) Router() *core.Router { return f.router }

// Dump renders the fleet state for the control plane (nvmetroctl shard).
func (f *Fleet) Dump() string {
	var b strings.Builder
	r := f.router
	fmt.Fprintf(&b, "fleet: shards=%d promote=%v promotions=%d demotions=%d promoted-ops=%d\n",
		r.Workers(), r.PromotionEnabled(), r.Promotions, r.Demotions, r.PromotedOps)
	for _, si := range r.ShardInfos() {
		state := "awake"
		if si.Asleep {
			state = "parked"
		}
		promoted := 0
		for _, p := range si.Promoted {
			if p {
				promoted++
			}
		}
		fmt.Fprintf(&b, "shard %d: tenants=%d promoted=%d comps=%d ctrl=%d qos=%v %s\n",
			si.ID, len(si.VMs), promoted, si.CompDepth, si.CtrlDepth, si.QoS, state)
		for i, id := range si.VMs {
			tier := "routed"
			if si.Promoted[i] {
				tier = "promoted"
			}
			fmt.Fprintf(&b, "  vm%-4d %s\n", id, tier)
		}
	}
	return b.String()
}
