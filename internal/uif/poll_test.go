package uif

import (
	"fmt"
	"math/rand"
	"testing"

	"nvmetro/internal/blockdev"
	"nvmetro/internal/core"
	"nvmetro/internal/device"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// okHandler completes every exported command on the spot.
type okHandler struct{ served []sim.Time }

func (h *okHandler) Work(p *sim.Proc, th *sim.Thread, req *Request) (bool, nvme.Status) {
	h.served = append(h.served, p.Now())
	return false, nvme.SCSuccess
}

// pollBench is a framework without polling threads over two attachments of
// one VM's router: the test is the polling thread, so it can compare what the
// spinner's poll says with what a sweep then does, at instants of its choice.
type pollBench struct {
	env  *sim.Env
	cpu  *sim.CPU
	f    *Framework
	atts []*Attachment
	ring *blockdev.URing
	qps  []*nvme.QueuePair
	vcs  []*core.Controller
	h    *okHandler
}

func newPollBench(seed int64, threads []*sim.Thread) *pollBench {
	env := sim.New(seed)
	cpu := sim.NewCPU(env, 16)
	p := device.Default970EvoPlus()
	dev := device.New(env, p, device.NewMemStore(512))
	router := core.NewRouter(env, core.DefaultRouterCosts(), []*sim.Thread{cpu.ThreadOn(8, "router")})
	b := &pollBench{env: env, cpu: cpu, f: NewFramework(env, DefaultCosts(), threads), h: &okHandler{}}
	bdev := blockdev.NewNVMeBlockDev(env, device.WholeNamespace(dev, 1), cpu, 14, blockdev.DefaultCosts())
	b.ring = blockdev.NewURing(env, bdev, blockdev.DefaultURingCosts())
	for i, part := range device.Carve(dev, 1, 2) {
		vc := router.Attach(vm.New(env, i, cpu, i, 1, 1<<20, vm.DefaultVirtCosts()), part)
		// Everything goes to the UIF.
		vc.SetNativeClassifier(func([]byte) uint64 { return core.ActSendNQ | core.ActWillCompleteNQ })
		b.atts = append(b.atts, b.f.Attach(vc.AttachUIF(16), b.h, b.ring))
		b.qps = append(b.qps, vc.CreateQP(16))
		b.vcs = append(b.vcs, vc)
	}
	return b
}

// guestSubmit pushes one command into tenant i's VSQ; the router exports it
// to the attachment's NSQ a poll round or two later.
func (b *pollBench) guestSubmit(i int, cid uint16) {
	cmd := nvme.NewRW(nvme.OpRead, cid, 1, 0, 1, 0, 0)
	if b.qps[i].SQ.Push(&cmd) {
		b.vcs[i].Ring(b.qps[i].SQ.ID)
	}
}

// books is everything an empty sweep must leave alone.
func (b *pollBench) books() string {
	s := fmt.Sprintf("stale=%d ring=%d", b.f.StaleRingComps, b.ring.Pending())
	for _, att := range b.atts {
		s += fmt.Sprintf(" [%v progress=%d events=%d async=%d deferred=%d backlog=%d nsq=%d waits=%d]", att.state,
			att.progress, att.Events, att.AsyncDone, len(att.deferred), len(att.backlog), att.nq.Pending(), len(att.pendingRing))
	}
	return s
}

// check is the soundness property at the current instant: when the spinner's
// poll reports nothing to see, a real pass over the attachments services
// nothing, is charged nothing (the clock stands still) and changes no state.
// It runs in a simulated process, so a violation is reported and the run
// stopped, for the test's own goroutine to fail on.
func (b *pollBench) check(t *testing.T, p *sim.Proc, th *sim.Thread, sp *spinner, what string) (ready bool) {
	t0 := p.Now()
	until := sp.poll(0)
	before := b.books()
	did := false
	for _, att := range b.f.atts {
		if b.f.sweep(p, th, att) {
			did = true
		}
	}
	if until > t0 && (did || p.Now() != t0 || b.books() != before) {
		t.Errorf("%s at %v: poll saw nothing before %v, yet the sweep did=%v and took %v\n before: %s\n after:  %s",
			what, t0, until, did, p.Now().Sub(t0), before, b.books())
		b.env.Stop()
	}
	return until <= t0
}

// TestPollNeverMissesWork drives two attachments through random states —
// exported commands, deferred work, queued backend I/O, ring completions with
// and without an owner, stalls that run out, a death — while the test, as
// the polling thread, compares poll with a real sweep at random instants, and
// at both sides of every time bound poll hands out.
func TestPollNeverMissesWork(t *testing.T) {
	var sawReady, sawIdle, sawWedgeEnd, sawStale int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := newPollBench(seed, nil)
		th := b.cpu.ThreadOn(9, "uif")
		other := b.cpu.ThreadOn(10, "other")
		sp := b.f.newSpinner(th)
		sp.parkAt = sim.Never
		b.env.Go("disturb", func(p *sim.Proc) {
			for step := 0; ; step++ {
				p.Sleep(sim.Duration(rng.Intn(20000)))
				att := b.atts[rng.Intn(2)]
				switch rng.Intn(8) {
				case 0, 1:
					b.guestSubmit(rng.Intn(2), uint16(step))
				case 2:
					att.Defer(func(*sim.Proc, *sim.Thread) {})
				case 3:
					att.SubmitBackendIO(blockdev.BioRead, 0, make([]byte, 512), nil)
				case 4:
					// A completion no attachment waits for: reaping it is
					// charged, and is not work.
					b.ring.Submit(p, other, blockdev.BioRead, 0, make([]byte, 512), 1<<40+uint64(step))
				case 5:
					att.Wedge(sim.Duration(1 + rng.Intn(30000)))
				case 6:
					if step > 150 {
						b.atts[1].Kill()
					}
				}
			}
		})
		ok := false
		b.env.Go("poller", func(p *sim.Proc) {
			for i := 0; i < 400; i++ {
				p.Sleep(sim.Duration(rng.Intn(3)) * sim.Duration(rng.Intn(8000)))
				stale := b.f.StaleRingComps
				if b.check(t, p, th, sp, "random instant") {
					sawReady++
				} else {
					sawIdle++
				}
				sawStale += int(b.f.StaleRingComps - stale)
				// The only clock-driven condition here is a stall running
				// out: sample just before the bound poll handed out, and on
				// it — where the stalled attachment, if nothing has touched
				// it meanwhile, is something to look at.
				if until := sp.poll(0); until > p.Now() && until != sim.Never {
					p.Sleep(until.Sub(p.Now()) - 1)
					b.check(t, p, th, sp, "just before a wedge expires")
					if p.Now() < until {
						p.Sleep(until.Sub(p.Now()))
					}
					for _, att := range b.atts {
						if att.state == AttWedged && att.wedgeUntil == until && p.Now() == until {
							if sp.poll(0) > until {
								t.Errorf("seed %d: the wedge ran out at %v and poll still says %v", seed, until, sp.poll(0))
							}
							sawWedgeEnd++
						}
					}
				}
			}
			ok = true
			b.env.Stop()
		})
		b.env.RunUntil(sim.Time(sim.Second))
		b.env.Close()
		if !ok || t.Failed() {
			t.Fatalf("seed %d: did not finish", seed)
		}
	}
	if sawReady < 500 || sawIdle < 500 || sawWedgeEnd < 50 || sawStale < 50 {
		t.Fatalf("weak run: %d ready, %d idle, %d wedge expiries, %d stale completions reaped", sawReady, sawIdle, sawWedgeEnd, sawStale)
	}
}

// TestSpinAcrossWedgeExpiry stalls an attachment while its poller is already
// spinning with a command waiting in the NSQ: the stall's end is a time bound
// that did not exist when the spin began. The command has to be served by the
// sweep at the first poll boundary at or past the expiry, as the per-round
// loop served it, and the elided sweeps in between still count as polls.
func TestSpinAcrossWedgeExpiry(t *testing.T) {
	b := newPollBench(1, nil)
	th := b.cpu.ThreadOn(9, "uif")
	b.env.Go("uif-poll", func(p *sim.Proc) { b.f.pollLoop(p, th) })
	costs := b.f.costs
	var wedgeEnd sim.Time
	var pollsAtWedge uint64
	b.env.Go("test", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond) // the poller has parked
		b.guestSubmit(0, 1)      // wakes it; served, then it spins on
		p.Sleep(20 * sim.Microsecond)
		b.atts[0].Wedge(17 * sim.Microsecond)
		wedgeEnd, pollsAtWedge = p.Now().Add(17*sim.Microsecond), b.f.Polls
		b.guestSubmit(0, 2)
		p.Sleep(sim.Millisecond)
		b.env.Stop()
	})
	b.env.RunUntil(sim.Time(sim.Second))
	defer b.env.Close()
	if len(b.h.served) != 2 {
		t.Fatalf("%d commands served, want 2", len(b.h.served))
	}
	// The handler runs one Parse after the sweep that found the command.
	swept := b.h.served[1].Add(-costs.Parse)
	if swept < wedgeEnd || swept.Sub(wedgeEnd) >= costs.Poll {
		t.Fatalf("second command swept at %v; the stall ended at %v and the next poll boundary is less than %v later", swept, wedgeEnd, costs.Poll)
	}
	// Every poll round from the stall to that sweep is in the books.
	if got, want := b.f.Polls-pollsAtWedge, uint64(17*sim.Microsecond/costs.Poll); got < want {
		t.Fatalf("%d polls counted across a 17us stall, want at least %d", got, want)
	}
}
