package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nvmetro/internal/device"
	"nvmetro/internal/nvme"
	"nvmetro/internal/qos"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// lookBench is a multi-tenant worker whose loop never starts: the test
// stands in for it, calling look and gather itself, and stands in for every
// other party too, so each can be put in any state at any instant.
type lookBench struct {
	env *sim.Env
	cpu *sim.CPU
	dev *device.Device
	r   *Router
	w   *worker
	vqs []*vqState
}

func newLookBench(seed int64, tenants int, withQoS bool) *lookBench {
	env := sim.New(seed)
	cpu := sim.NewCPU(env, 4)
	p := device.Default970EvoPlus()
	b := &lookBench{env: env, cpu: cpu, dev: device.New(env, p, device.NewMemStore(512))}
	b.r = &Router{env: env, costs: DefaultRouterCosts(), FastPathDeadline: 300 * sim.Microsecond, HTagReclaim: 700 * sim.Microsecond}
	b.w = newWorker(b.r, 0, cpu.ThreadOn(3, "router"))
	b.r.workers = []*worker{b.w}
	if withQoS {
		b.r.EnableQoS(qos.Config{Window: 20 * sim.Microsecond})
	}
	for i, part := range device.Carve(b.dev, 1, tenants) {
		b.attach(i, part)
	}
	return b
}

func (b *lookBench) attach(id int, part device.Partition) *Controller {
	vc := b.r.Attach(vm.New(b.env, id, b.cpu, 0, 1, 1<<20, vm.DefaultVirtCosts()), part)
	if vc.tenant != nil {
		vc.SetQoS(qos.TenantConfig{SLOTargetP99: 50 * sim.Microsecond})
	}
	vc.CreateQP(8)
	b.vqs = append(b.vqs, vc.vqs[0])
	return vc
}

// advance moves the clock without running anything of the router's.
func (b *lookBench) advance(d sim.Duration) { b.env.RunUntil(b.env.Now().Add(d)) }

// books is everything an empty gather must leave alone: the router's
// counters, each queue's timed state, and what the arbiter's Tick moves.
func (b *lookBench) books() string {
	var s string
	rv := reflect.ValueOf(b.r).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Field(i); f.Kind() == reflect.Uint64 {
			s += fmt.Sprintf("%s=%d ", rv.Type().Field(i).Name, f.Uint())
		}
	}
	for i, vq := range b.vqs {
		lost := 0
		for _, e := range vq.htags {
			if e.lost != 0 {
				lost++
			}
		}
		s += fmt.Sprintf("q%d[vsq=%d hcq=%d dl=%d/%d due=%d/%d lost=%d free=%d] ", i, vq.vsq.Len(), vq.hqp.CQ.Len(),
			vq.hops.Len(), vq.reclaims.Len(), len(vq.hops.due), len(vq.reclaims.due), lost, len(vq.freeHTags))
	}
	for _, vc := range b.w.vcs {
		if vc.nq != nil {
			s += fmt.Sprintf("ncq=%d ", vc.nq.ncq.Len())
		}
	}
	if a := b.w.qos; a != nil {
		s += fmt.Sprintf("qos[end=%d sheds=%d restores=%d", a.NextWindowEnd(), a.Sheds, a.Restores)
		for _, ts := range a.Snapshot(b.env.Now()) {
			s += fmt.Sprintf(" %d/%d/%d/%d", ts.SLOMet, ts.SLOMissed, ts.Throttled, ts.Deferred)
		}
		s += "] "
	}
	return s + fmt.Sprintf("comps=%d ctrl=%d", len(b.w.comps), len(b.w.ctrl))
}

// due reports whether a deadline timer has recorded something the worker has
// not gathered yet.
func (b *lookBench) due() bool {
	for _, vq := range b.vqs {
		if len(vq.hops.due) > 0 || len(vq.reclaims.due) > 0 {
			return true
		}
	}
	return false
}

// busy is a tenant's clause of look as it was before the ready set: its NCQ,
// VSQs, HCQs and deadline timers, walked.
func busy(vc *Controller) bool {
	if vc.nq != nil && vc.nq.ncq.Peek() {
		return true
	}
	for _, vq := range vc.vqs {
		if !vq.vsq.Empty() || vq.hqp.CQ.Peek() || len(vq.hops.due) > 0 || len(vq.reclaims.due) > 0 {
			return true
		}
	}
	return false
}

// walkLook is look as it was before the ready set: every tenant walked.
func (b *lookBench) walkLook() sim.Time {
	w := b.w
	if w.rewired || len(w.comps) > 0 || len(w.ctrl) > 0 {
		return 0
	}
	for _, vc := range w.vcs {
		if busy(vc) {
			return 0
		}
	}
	if w.qos != nil {
		return w.qos.NextWindowEnd()
	}
	return sim.Never
}

// inSet reports whether tenant position i is in s.
func inSet(s *posSet, i int) bool { return s.next(i) == i }

// readySound: every tenant with something in its queues is in the ready set,
// and look says what the walk of every tenant says.
func (b *lookBench) readySound(t *testing.T, what string) {
	t.Helper()
	for i, vc := range b.w.vcs {
		if busy(vc) && !inSet(&b.w.ready, i) {
			t.Fatalf("%s at %v: tenant %d has work and is not in the ready set", what, b.env.Now(), i)
		}
	}
	if got, want := b.w.look(0), b.walkLook(); got != want {
		t.Fatalf("%s at %v: look says %v, a walk of every tenant says %v", what, b.env.Now(), got, want)
	}
}

// check is the soundness property at the current instant: if look reports
// nothing to see, a real gather finds nothing — no effect, nothing consumed,
// no counter or arbiter state moved — and costs exactly an idle round, so the
// round Spin elided in its place was the round the worker would have run.
// Before and after the gather the ready set must be sound (see readySound).
// It reports what look said and drains whatever was there either way.
func (b *lookBench) check(t *testing.T, what string) (ready bool) {
	t.Helper()
	now := b.env.Now()
	b.readySound(t, what)
	until := b.w.look(0)
	ready = until <= now
	before := b.books()
	var effects []effect
	work, _ := b.w.gather(&effects)
	b.readySound(t, what+", after a gather")
	if !ready {
		if len(effects) != 0 || b.books() != before {
			t.Fatalf("%s at %v: look saw nothing before %v, yet a gather took %d effects\n before: %s\n after:  %s",
				what, now, until, len(effects), before, b.books())
		}
		if want := b.r.costs.PollVQ * sim.Duration(len(b.w.vcs)); work != want {
			t.Fatalf("%s at %v: an empty gather cost %v, want %v for %d tenants", what, now, work, want, len(b.w.vcs))
		}
		if again := b.w.look(0); again != until {
			t.Fatalf("%s at %v: look moved from %v to %v across an empty gather", what, now, until, again)
		}
	}
	return ready
}

// TestReadyNeverMissesWork puts a multi-tenant worker's rings, inboxes,
// deadlines, quarantined tags and SLO windows in random states at random
// instants and checks look against a real gather and against a walk of every
// tenant each time, and that every tenant with work is in the ready set; then,
// for every time bound look hands out, the instant just before it (still
// nothing) and the bound itself. A deadline timer that fires on the way to a
// bound is a scheduler event, which ends a spin step by itself: look must see
// what it recorded, and the bound is not looked at past it. Each step reaches
// the queues the way their producers do — a guest pushes without ringing, the
// device and the UIF post — so only the queues' own hooks can make a tenant
// ready.
func TestReadyNeverMissesWork(t *testing.T) {
	var sawReady, sawIdle, sawTimed, sawTimers int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := newLookBench(seed, 5, seed%2 == 0)
		if seed%4 == 0 {
			b.w.vcs[2].AttachUIF(8)
		}
		for b.check(t, "settling") { // first SLO windows open, rewired clears
		}
		for step := 0; step < 300; step++ {
			vq := b.vqs[rng.Intn(len(b.vqs))]
			what := "nothing"
			switch rng.Intn(12) {
			case 0:
				what = "guest submission"
				cmd := nvme.NewRW(nvme.OpRead, uint16(step), 1, 0, 1, 0, 0)
				vq.vsq.Push(&cmd)
			case 1:
				what = "fast-path completion"
				vq.hqp.CQ.Post(uint16(rng.Intn(8)), vq.qid, 0, nvme.SCSuccess, 0)
			case 2:
				what = "kernel completion"
				b.w.comps = append(b.w.comps, effect{kind: effFinish, t: targetKQ})
			case 3:
				what = "control post"
				b.w.post(func() {})
			case 4:
				what = "hop deadline"
				if len(vq.freeHTags) > 0 {
					cid := vq.freeHTags[len(vq.freeHTags)-1]
					vq.freeHTags = vq.freeHTags[:len(vq.freeHTags)-1]
					vq.dispatchSeq++
					vq.htags[cid] = htag{hop: hop{req: &request{vq: vq, pending: 1}}, epoch: vq.dispatchSeq}
					vq.hops.Add(uint32(cid), vq.dispatchSeq, b.env.Now().Add(sim.Duration(rng.Intn(3000))))
				}
			case 5:
				what = "notify completion"
				if nq := b.w.vcs[2].nq; nq != nil {
					nq.ncq.Post(uint16(step), 0, 0, nvme.SCSuccess, 0)
				}
			}
			b.readySound(t, what)
			b.advance(sim.Duration(rng.Intn(4)) * sim.Duration(rng.Intn(2000)))
			if due := b.due(); b.check(t, what) {
				sawReady++
			} else if due {
				t.Fatalf("seed %d step %d: a deadline timer recorded work and look did not see it", seed, step)
			} else {
				sawIdle++
			}
			// Whatever the clock alone will bring: nothing until just
			// before the bound, something to look at on it (SLO windows
			// never stop coming: follow a few).
			for i := 0; i < 3; i++ {
				until := b.w.look(0)
				if until <= b.env.Now() || until == sim.Never {
					break
				}
				b.advance(until.Sub(b.env.Now()) - 1)
				if b.due() {
					if !b.check(t, "deadline timer") {
						t.Fatalf("seed %d step %d: a deadline timer recorded work and look did not see it", seed, step)
					}
					sawTimers++
					break
				}
				if b.check(t, "just before the bound") {
					t.Fatalf("seed %d step %d: look promised nothing before %v and says look at %v", seed, step, until, b.env.Now())
				}
				b.advance(1)
				if !b.check(t, "on the bound") {
					t.Fatalf("seed %d step %d: look said wait until %v and has nothing to see there", seed, step, until)
				}
				sawTimed++
			}
		}
	}
	if sawReady < 1000 || sawIdle < 1000 || sawTimed < 1000 || sawTimers < 50 {
		t.Fatalf("weak run: %d ready, %d idle, %d timed bounds, %d timers before a bound checked", sawReady, sawIdle, sawTimed, sawTimers)
	}
	t.Run("posting and retrying", testPostingAndRetrying)
}

// testPostingAndRetrying: a tenant whose VCQ is full keeps its place in the
// posting set, and one whose HSQ is full keeps its place in the retrying set,
// across every flush that leaves work behind, and leaves once it is drained;
// no other tenant is ever in either set. The flush is the reactor's own,
// driven from a callback as the end of a round drives it.
func testPostingAndRetrying(t *testing.T) {
	b := newLookBench(1, 3, false)
	b.advance(1) // the device looks at its new queues once
	w, vq := b.w, b.vqs[1]
	only := func(s *posSet, want bool, what string) {
		t.Helper()
		for i := range w.vcs {
			if in := inSet(s, i); in != (want && i == 1) {
				t.Fatalf("%s: tenant %d in the set: %v", what, i, in)
			}
		}
	}
	flush := func() {
		// The tail of a round: the VCQ flush, then the retries.
		flushed := false
		b.env.After(0, func() { w.flushVCQs(func() { w.flushRetries(); flushed = true }) })
		b.advance(sim.Millisecond)
		if !flushed {
			t.Fatal("the flush did not finish")
		}
	}
	var work sim.Duration

	// Twelve completions for a VCQ that holds seven.
	for i := 0; i < 12; i++ {
		cmd := nvme.NewRW(nvme.OpRead, uint16(i), 1, 0, 1, 0, 0)
		req := w.admit(vq, &cmd, &work).h.req
		w.completeReq(req, nvme.SCSuccess)
		w.put(req)
	}
	only(&w.posting, true, "completions waiting")
	flush()
	if len(vq.pendingVCQ) != 5 {
		t.Fatalf("%d completions wait after a flush into an empty 8-deep VCQ, want 5", len(vq.pendingVCQ))
	}
	only(&w.posting, true, "VCQ full")
	flush() // the guest has consumed nothing: the VCQ is still full
	only(&w.posting, true, "VCQ still full")
	var e nvme.Completion
	for vq.vcq.Pop(&e) {
	}
	flush()
	if len(vq.pendingVCQ) != 0 {
		t.Fatalf("%d completions wait after the guest drained its VCQ", len(vq.pendingVCQ))
	}
	only(&w.posting, false, "VCQ drained")

	// A dispatch into a full HSQ: its retry is refused again and re-queued
	// until the device has taken what fills it.
	for !vq.hqp.SQ.Full() {
		cmd := nvme.NewRW(nvme.OpRead, 0, 1, 0, 1, 0, 0)
		vq.hqp.SQ.Push(&cmd)
	}
	cmd := nvme.NewRW(nvme.OpRead, 99, 1, vq.vc.part.Start, 1, 0, 0)
	req := w.admit(vq, &cmd, &work).h.req
	req.pending, req.waiters = 1, 1
	w.dispatch(hop{req, dispComplete}, targetHQ)
	only(&w.retrying, true, "HSQ full")
	flush()
	if len(w.vcs[1].retry) != 1 || b.r.Backpressure != 2 {
		t.Fatalf("after a refused retry: %d retries queued, %d refusals; want 1 and 2", len(w.vcs[1].retry), b.r.Backpressure)
	}
	only(&w.retrying, true, "HSQ still full")
	b.dev.Ring(vq.hqp.SQ.ID)
	b.advance(1)
	flush()
	if len(w.vcs[1].retry) != 0 || b.r.FastPath != 3 || b.r.Backpressure != 2 {
		t.Fatalf("after the device drained the HSQ: %d retries queued, %d attempts, %d refusals; want 0, 3 and 2",
			len(w.vcs[1].retry), b.r.FastPath, b.r.Backpressure)
	}
	only(&w.retrying, false, "HSQ drained")
}

// TestLookSeesRewiring: anything that changes the set of things a gather
// walks from outside the worker makes look say "look" until a gather has run,
// because the rounds being spun charge the old walk's cost.
func TestLookSeesRewiring(t *testing.T) {
	b := newLookBench(1, 3, false)
	settle := func() {
		t.Helper()
		for i := 0; b.check(t, "settling"); i++ {
			if i > 3 {
				t.Fatal("look never settles on an idle worker")
			}
		}
	}
	settle()
	var nq *NotifyQueues
	for _, tc := range []struct {
		name string
		do   func()
	}{
		{"Router.Attach", func() { b.attach(9, device.WholeNamespace(b.dev, 1)) }},
		{"Controller.CreateQP", func() { b.w.vcs[0].CreateQP(4) }},
		{"AttachUIF", func() { nq = b.w.vcs[1].AttachUIF(8) }},
		{"notify completion", func() { nq.Complete(7, nvme.SCSuccess) }},
		{"DetachUIF", func() { b.w.vcs[1].DetachUIF() }},
		{"post", func() { b.w.post(func() {}) }},
		{"EnableQoS", func() { b.r.EnableQoS(qos.Config{}) }},
	} {
		tc.do()
		if until := b.w.look(0); until > b.env.Now() {
			t.Fatalf("%s left look at %v: the worker would spin across it", tc.name, until)
		}
		settle()
	}
}
