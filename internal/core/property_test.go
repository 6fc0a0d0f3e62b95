package core_test

import (
	"math/rand"
	"testing"

	"nvmetro/internal/core"
	"nvmetro/internal/device"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// TestRouterLivenessUnderArbitraryClassifiers is the router's core safety
// property: whatever (well-formed) routing decision a classifier emits —
// any combination of targets, hooks, completion modes, multicast, immediate
// completion, nested hook chains — every guest request eventually completes
// and no routing-table state leaks. A wedged or double-completed request
// panics or times out the test.
func TestRouterLivenessUnderArbitraryClassifiers(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		r := newRig(1)
		part := device.WholeNamespace(r.dev, 1)
		v, vc, disk := r.addVM(0, part)
		u := attachFakeUIF(r.env, vc)
		u.delay = 20 * sim.Microsecond
		kt := &fakeKernelDev{env: r.env, delay: 15 * sim.Microsecond}
		vc.SetKernelTarget(kt)

		depth := 0
		vc.SetNativeClassifier(func(ctx []byte) uint64 {
			// On re-entry via a hook, either complete or fan out again
			// (bounded so chains terminate).
			hook := uint32(ctx[core.CtxOffHook])
			if hook != core.HookVSQ {
				depth++
			}
			if hook != core.HookVSQ && (depth%3 == 0 || rng.Intn(2) == 0) {
				return core.ActComplete // status OK
			}
			var act uint64
			// Pick 1..3 targets with random dispositions.
			targets := []struct{ send, hook, comp uint64 }{
				{core.ActSendHQ, core.ActHookHCQ, core.ActWillCompleteHQ},
				{core.ActSendNQ, core.ActHookNCQ, core.ActWillCompleteNQ},
				{core.ActSendKQ, core.ActHookKCQ, core.ActWillCompleteKQ},
			}
			picked := 0
			for _, tg := range targets {
				if rng.Intn(2) == 0 {
					continue
				}
				picked++
				act |= tg.send
				switch rng.Intn(3) {
				case 0:
					if hook == core.HookVSQ { // keep hook chains shallow
						act |= tg.hook
					} else {
						act |= tg.comp
					}
				case 1:
					act |= tg.comp
				default:
					// fire-and-forget leg
				}
			}
			if picked == 0 {
				// Nothing sent: either complete explicitly or return a
				// no-op word (the router must fail it cleanly, not hang).
				if rng.Intn(2) == 0 {
					return core.ActComplete
				}
				return 0
			}
			// Ensure at least one leg completes the request so it is not
			// purely fire-and-forget.
			if act&(core.ActWillCompleteHQ|core.ActWillCompleteNQ|core.ActWillCompleteKQ|
				core.ActHookHCQ|core.ActHookNCQ|core.ActHookKCQ) == 0 {
				act |= core.ActWillCompleteHQ
				act |= core.ActSendHQ
			}
			return act
		})

		completed := 0
		r.run(t, func(p *sim.Proc) {
			base, pages, _ := v.Mem.AllocBuffer(512)
			done := sim.NewCond(r.env)
			for i := 0; i < 200; i++ {
				op := vm.OpRead
				if rng.Intn(2) == 0 {
					op = vm.OpWrite
				}
				finished := false
				req := &vm.Req{Op: op, LBA: uint64(rng.Intn(4096)), Blocks: 1, Buf: base, BufPages: pages,
					OnDone: func(*vm.Req) { finished = true; done.Signal(nil) }}
				disk.SubmitFunc(v.VCPU(0), req, func() {})
				deadline := p.Now().Add(100 * sim.Millisecond)
				for !finished && p.Now() < deadline {
					done.WaitTimeout(10 * sim.Millisecond)
				}
				if !finished {
					t.Fatalf("seed %d: request %d (%v) wedged; %d outstanding", seed, i, req.Op, vc.Outstanding())
				}
				// Status may legitimately be an error (no-op classifier
				// word), but the request must COMPLETE either way.
				completed++
			}
		})
		if completed != 200 {
			t.Fatalf("seed %d: only %d/200 requests completed", seed, completed)
		}
		_ = nvme.SCSuccess
	}
}
