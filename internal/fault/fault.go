// Package fault is the deterministic fault-injection subsystem: it decides,
// per simulated command, whether a layer should experience a media error, a
// dropped completion, a stuck (delayed) completion, or — for the fabric — a
// scheduled link outage. Every decision comes from a seeded PRNG stream
// derived per injection site, so identical seeds and plans yield identical
// fault traces and every failure is reproducible in tests.
package fault

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"nvmetro/internal/metrics"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
)

// Kind enumerates the injectable fault kinds.
type Kind int

// Fault kinds.
const (
	// mediaReadError fails a read command with SCUnrecoveredRead.
	mediaReadError Kind = iota
	// mediaWriteError fails a write command with SCWriteFault.
	mediaWriteError
	// dropCompletion executes the command but never posts its completion
	// (a lost interrupt / lost CQE).
	dropCompletion
	// stuckCompletion delays the completion by the rule's Delay.
	stuckCompletion
	// uifCrash kills the userspace I/O function's poll loop: the
	// attachment stops servicing its notify queues and all in-process
	// state is lost, as if the UIF process died.
	uifCrash
	// uifWedge stalls the poll loop for the rule's Delay (0 = forever):
	// the process is alive but makes no progress — a livelock, an
	// allocator stall, a runaway GC pause.
	uifWedge
	// BitRot flips bits in stored data after a successful write: a later
	// read returns silently corrupted payload with an OK status.
	BitRot
	// TornWrite persists only a prefix of the write's payload (the power
	// failed mid-sector); the command still completes OK.
	TornWrite
	// MisdirectedWrite lands the payload at the wrong LBA, leaving the
	// addressed blocks stale and clobbering an unrelated range.
	MisdirectedWrite
	// LostWrite acknowledges the write without persisting anything.
	LostWrite
	numKinds
)

func (k Kind) String() string {
	switch k {
	case mediaReadError:
		return "media-read"
	case mediaWriteError:
		return "media-write"
	case dropCompletion:
		return "drop-completion"
	case stuckCompletion:
		return "stuck-completion"
	case uifCrash:
		return "uif-crash"
	case uifWedge:
		return "uif-wedge"
	case BitRot:
		return "bit-rot"
	case TornWrite:
		return "torn-write"
	case MisdirectedWrite:
		return "misdirected-write"
	case LostWrite:
		return "lost-write"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Class is the command class an injector is asked about.
type Class int

// Command classes.
const (
	ClassRead Class = iota
	ClassWrite
	ClassOther
)

// rule is one probabilistic injection rule. Rules are evaluated in plan
// order on every eligible command; Limit caps how many times the rule fires
// at one injection site (0 = unlimited).
type rule struct {
	Kind  Kind
	Rate  float64      // probability per eligible command, in [0,1]
	Limit int          // max firings per site (0 = unlimited)
	Delay sim.Duration // StuckCompletion hold time
}

func (r rule) eligible(c Class) bool {
	switch r.Kind {
	case mediaReadError, BitRot:
		return c == ClassRead
	case mediaWriteError, TornWrite, MisdirectedWrite, LostWrite:
		return c == ClassWrite
	default:
		return c == ClassRead || c == ClassWrite || c == ClassOther
	}
}

// Outage is one scheduled fabric outage window.
type Outage struct {
	At  sim.Time
	Dur sim.Duration
}

// Plan is a reusable fault plan: a rule set. A Plan is a template —
// per-site state (rule fire counts, PRNG streams) lives in the Injectors it
// hands out. Fabric outages are scheduled on the link itself
// (nvmeof.Link.ScheduleOutage).
type Plan struct {
	Seed  int64
	rules []rule
}

// NewPlan creates an empty plan with the given seed.
func NewPlan(seed int64) *Plan { return &Plan{Seed: seed} }

// withRule appends a rule and returns the plan for chaining. Invalid rules
// (Rate outside [0,1], negative Delay or Limit) panic here, at plan build
// time, instead of silently misbehaving at injection time.
func (p *Plan) withRule(r rule) *Plan {
	if err := r.validate(); err != nil {
		panic("fault: " + err.Error())
	}
	p.rules = append(p.rules, r)
	return p
}

// validate checks the rule's parameters for sanity.
func (r rule) validate() error {
	switch {
	case r.Rate < 0 || r.Rate > 1:
		return fmt.Errorf("rule %v: rate %v outside [0,1]", r.Kind, r.Rate)
	case r.Delay < 0:
		return fmt.Errorf("rule %v: negative delay %v", r.Kind, r.Delay)
	case r.Limit < 0:
		return fmt.Errorf("rule %v: negative limit %d", r.Kind, r.Limit)
	}
	return nil
}

// WithMediaErrors adds read and write media-error rules at the given rate.
func (p *Plan) WithMediaErrors(rate float64) *Plan {
	return p.withRule(rule{Kind: mediaReadError, Rate: rate}).
		withRule(rule{Kind: mediaWriteError, Rate: rate})
}

// WithDrops adds a dropped-completion rule.
func (p *Plan) WithDrops(rate float64, limit int) *Plan {
	return p.withRule(rule{Kind: dropCompletion, Rate: rate, Limit: limit})
}

// WithStuck adds a stuck-completion rule holding completions for delay.
func (p *Plan) WithStuck(rate float64, limit int, delay sim.Duration) *Plan {
	return p.withRule(rule{Kind: stuckCompletion, Rate: rate, Limit: limit, Delay: delay})
}

// WithUIFCrash adds a UIF poll-loop crash rule.
func (p *Plan) WithUIFCrash(rate float64, limit int) *Plan {
	return p.withRule(rule{Kind: uifCrash, Rate: rate, Limit: limit})
}

// WithUIFWedge adds a UIF poll-loop stall rule holding the loop for delay
// (0 = wedged until killed).
func (p *Plan) WithUIFWedge(rate float64, limit int, delay sim.Duration) *Plan {
	return p.withRule(rule{Kind: uifWedge, Rate: rate, Limit: limit, Delay: delay})
}

// WithBitRot adds a silent stored-data corruption rule on reads.
func (p *Plan) WithBitRot(rate float64, limit int) *Plan {
	return p.withRule(rule{Kind: BitRot, Rate: rate, Limit: limit})
}

// WithTornWrites adds a torn-write rule: only a prefix of the payload
// persists while the command completes OK.
func (p *Plan) WithTornWrites(rate float64, limit int) *Plan {
	return p.withRule(rule{Kind: TornWrite, Rate: rate, Limit: limit})
}

// WithMisdirectedWrites adds a misdirected-write rule: the payload lands at
// the wrong LBA and the addressed blocks stay stale.
func (p *Plan) WithMisdirectedWrites(rate float64, limit int) *Plan {
	return p.withRule(rule{Kind: MisdirectedWrite, Rate: rate, Limit: limit})
}

// WithLostWrites adds a lost-write rule: the write is acknowledged but
// nothing persists.
func (p *Plan) WithLostWrites(rate float64, limit int) *Plan {
	return p.withRule(rule{Kind: LostWrite, Rate: rate, Limit: limit})
}

// Injector derives the per-site injector for the named site. The PRNG
// stream depends only on (plan seed, site name), so the decision sequence
// at one site is independent of activity at every other site.
func (p *Plan) Injector(site string) *Injector {
	h := fnv.New64a()
	h.Write([]byte(site))
	seed := p.Seed ^ int64(h.Sum64())
	inj := &Injector{site: site, rng: rand.New(rand.NewSource(seed))}
	inj.rules = make([]ruleState, len(p.rules))
	for i, r := range p.rules {
		inj.rules[i] = ruleState{rule: r}
	}
	return inj
}

type ruleState struct {
	rule
	fired int
}

// Decision is the outcome of one injection query. The zero value means
// "no fault".
type Decision struct {
	Status     nvme.Status  // non-OK fails the command with this status
	Drop       bool         // suppress the completion entirely
	Delay      sim.Duration // hold the completion this long before posting
	Crash      bool         // kill the UIF poll loop (state lost)
	Wedge      bool         // stall the UIF poll loop
	WedgeFor   sim.Duration // stall duration (0 = until killed)
	Corrupt    Kind         // silent-corruption kind (valid when HasCorrupt)
	HasCorrupt bool         // a silent-corruption rule fired
}

// Faulty reports whether any fault was injected.
func (d Decision) Faulty() bool {
	return !d.Status.OK() || d.Drop || d.Delay > 0 || d.Crash || d.Wedge || d.HasCorrupt
}

// Injector is per-site fault state: rule fire counts, the site PRNG stream
// and injection counters. Methods on a nil Injector are no-ops, so layers
// can hold one unconditionally.
type Injector struct {
	site  string
	rng   *rand.Rand
	rules []ruleState

	// Stats
	Commands uint64           // decisions taken
	Injected [numKinds]uint64 // faults injected, by kind
}

// Decide evaluates the plan's rules for one command of class c. Every rule
// draws from the site stream in plan order (even after its limit is
// exhausted), keeping the stream alignment independent of firing history.
func (inj *Injector) Decide(c Class) Decision {
	var d Decision
	if inj == nil {
		return d
	}
	inj.Commands++
	for i := range inj.rules {
		r := &inj.rules[i]
		if !r.eligible(c) || r.Rate <= 0 {
			continue
		}
		hit := inj.rng.Float64() < r.Rate
		if !hit || (r.Limit > 0 && r.fired >= r.Limit) {
			continue
		}
		r.fired++
		inj.Injected[r.Kind]++
		switch r.Kind {
		case mediaReadError:
			if d.Status.OK() {
				d.Status = nvme.SCUnrecoveredRead
			}
		case mediaWriteError:
			if d.Status.OK() {
				d.Status = nvme.SCWriteFault
			}
		case dropCompletion:
			d.Drop = true
		case stuckCompletion:
			if r.Delay > d.Delay {
				d.Delay = r.Delay
			}
		case uifCrash:
			d.Crash = true
		case uifWedge:
			d.Wedge = true
			if r.Delay > d.WedgeFor {
				d.WedgeFor = r.Delay
			}
		case BitRot, TornWrite, MisdirectedWrite, LostWrite:
			// first corruption kind to fire wins; later draws still
			// advance the stream via the hit check above
			if !d.HasCorrupt {
				d.Corrupt = r.Kind
				d.HasCorrupt = true
			}
		}
	}
	return d
}

// InjectedTotal returns the total number of injected faults.
func (inj *Injector) InjectedTotal() uint64 {
	if inj == nil {
		return 0
	}
	var n uint64
	for _, v := range inj.Injected {
		n += v
	}
	return n
}

// Collect exports the per-kind fire counts as counters under the
// "fault.<site>." prefix.
// Every kind is emitted (zeros included) so the schema, and therefore
// CounterSet ordering, is identical across runs and plans.
func (inj *Injector) Collect(cs *metrics.CounterSet) {
	if inj == nil {
		return
	}
	cs.Add("fault."+inj.site+".commands", inj.Commands)
	for k := Kind(0); k < numKinds; k++ {
		cs.Add(fmt.Sprintf("fault.%s.%v", inj.site, k), inj.Injected[k])
	}
}
