package sim

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/primitives.golden from the current kernel")

// traceMix is a seeded random mix of processes and continuations on every
// blocking primitive: Sleep, Exec/ExecFunc on a contended core (and on a free
// one), Spin/SpinFunc with waiters queueing for the spinner's core,
// Acquire/AcquireFunc, Wait/WaitFunc with Signal values and Broadcast,
// WaitTimeout/WaitTimeoutFunc signalled and expired, Go from processes and
// from callbacks, and Close with processes still parked. Every resume is one
// log line: instant, events dispatched, actor, operation, result.
type traceMix struct {
	env      *Env
	rng      *rand.Rand
	log      []string
	busy     []*Thread // three threads on core 0, which they contend for
	free     *Thread   // alone on core 1
	res      *Resource
	c, ct    *Cond // Wait/WaitFunc; WaitTimeout/WaitTimeoutFunc
	work     int   // posted work a spinner's poll looks for
	sig      int   // next Signal value
	children int
	closed   []string // processes Close unwound
}

func (m *traceMix) note(actor, op, result string) {
	e := m.env
	m.log = append(m.log, fmt.Sprintf("%d %d %s %s %s", e.Now(), e.Dispatched(), actor, op, result))
}

func (m *traceMix) thread() *Thread {
	if m.rng.Intn(5) == 0 {
		return m.free
	}
	return m.busy[m.rng.Intn(len(m.busy))]
}

// spinPoll returns a spin's poll: look at once when work was posted after
// the spin began, otherwise when its bound arrives. credited sums the rounds
// the spin hands it.
func (m *traceMix) spinPoll(credited *int) func(int) Time {
	seen, bound := m.work, m.env.Now().Add(Duration(m.rng.Intn(4000)+500))
	return func(n int) Time {
		*credited += n
		if m.work != seen {
			return 0
		}
		return bound
	}
}

// nonBlocking runs op when it is one of the operations that do not wait, and
// reports whether it was.
func (m *traceMix) nonBlocking(actor string, op int) bool {
	switch op {
	case 7:
		m.sig++
		c := m.c
		if m.rng.Intn(3) == 0 {
			c = m.ct
		}
		m.note(actor, "signal", fmt.Sprint(c.Signal(m.sig)))
	case 8:
		if m.rng.Intn(2) == 0 {
			m.c.Broadcast()
		} else {
			m.ct.Broadcast()
		}
		m.note(actor, "broadcast", "")
	case 9:
		m.work++
		m.note(actor, "post", fmt.Sprint(m.work))
	case 10:
		m.children++
		name := fmt.Sprintf("%s.%d", actor, m.children)
		m.env.Go(name, m.proc(name, 3))
		m.note(actor, "go", name)
	default:
		return false
	}
	return true
}

// proc is a process actor running ops operations.
func (m *traceMix) proc(actor string, ops int) func(*Proc) {
	return func(p *Proc) {
		finished := false
		defer func() {
			if !finished {
				m.closed = append(m.closed, actor)
			}
		}()
		m.note(actor, "start", "")
		for range ops {
			op := m.rng.Intn(11)
			if m.nonBlocking(actor, op) {
				continue
			}
			switch op {
			case 0:
				d := Duration(m.rng.Intn(3) * 500)
				p.Sleep(d)
				m.note(actor, "sleep", fmt.Sprint(d))
			case 1:
				th, d := m.thread(), Duration(m.rng.Intn(5)*200-100)
				th.Exec(p, d)
				m.note(actor, "exec", fmt.Sprint(d))
			case 2:
				credited := 0
				th := m.busy[m.rng.Intn(len(m.busy))]
				n := th.Spin(p, Duration(100+m.rng.Intn(2)*150), m.spinPoll(&credited))
				m.note(actor, "spin", fmt.Sprint(n, credited))
			case 3:
				m.res.Acquire()
				m.note(actor, "acquire", "")
				p.Sleep(Duration(m.rng.Intn(4) * 300))
				m.res.Release()
				m.note(actor, "release", "")
			case 4:
				m.note(actor, "wait", fmt.Sprint(m.c.Wait()))
			default:
				d := Duration(m.rng.Intn(4)*700 + 1)
				v, ok := m.ct.WaitTimeout(d)
				m.note(actor, "waittimeout", fmt.Sprint(v, ok))
			}
		}
		finished = true
		m.note(actor, "done", "")
	}
}

// cont is a continuation actor: ops operations, each started from the
// previous one's continuation.
func (m *traceMix) cont(actor string, ops int) {
	if ops == 0 {
		m.note(actor, "done", "")
		return
	}
	next := func() { m.cont(actor, ops-1) }
	op := m.rng.Intn(11)
	if m.nonBlocking(actor, op) {
		next()
		return
	}
	switch op {
	case 0:
		d := Duration(m.rng.Intn(3) * 500)
		m.env.After(d, func() { m.note(actor, "after", fmt.Sprint(d)); next() })
	case 1:
		th, d := m.thread(), Duration(m.rng.Intn(5)*200-100)
		th.ExecFunc(d, func() { m.note(actor, "execfunc", fmt.Sprint(d)); next() })
	case 2:
		credited := new(int)
		th := m.busy[m.rng.Intn(len(m.busy))]
		th.SpinFunc(Duration(100+m.rng.Intn(2)*150), m.spinPoll(credited), func() {
			m.note(actor, "spinfunc", fmt.Sprint(*credited))
			next()
		})
	case 3:
		granted := func() {
			m.note(actor, "acquirefunc", "")
			m.env.After(Duration(m.rng.Intn(4)*300), func() {
				m.res.Release()
				m.note(actor, "release", "")
				next()
			})
		}
		if m.res.AcquireFunc(granted) {
			granted()
		}
	case 4:
		m.c.WaitFunc(func() { m.note(actor, "waitfunc", ""); next() })
	default:
		d := Duration(m.rng.Intn(4)*700 + 1)
		m.ct.WaitTimeoutFunc(d, func(ok bool) { m.note(actor, "waittimeoutfunc", fmt.Sprint(ok)); next() })
	}
}

func runTraceMix(seed int64) []string {
	env := New(seed)
	cpu := NewCPU(env, 2)
	m := &traceMix{
		env:  env,
		rng:  rand.New(rand.NewSource(seed)),
		busy: []*Thread{cpu.ThreadOn(0, "a"), cpu.ThreadOn(0, "b"), cpu.ThreadOn(0, "c")},
		free: cpu.ThreadOn(1, "d"),
		res:  NewResource(env, 2),
		c:    NewCond(env),
		ct:   NewCond(env),
	}
	for i := range 8 {
		name := fmt.Sprint("p", i)
		env.Go(name, m.proc(name, 40))
	}
	for i := range 6 {
		name := fmt.Sprint("f", i)
		env.After(Duration(i*100), func() { m.cont(name, 40) })
	}
	// A ticker keeps both conditions moving, so most waits end, and now and
	// then spawns a process from a callback.
	var tick func()
	tick = func() {
		switch r := m.rng.Intn(20); {
		case r == 0:
			m.nonBlocking("tick", 8)
		case r == 1:
			m.nonBlocking("tick", 10)
		case r < 4:
			m.nonBlocking("tick", 9)
		default:
			m.nonBlocking("tick", 7)
		}
		env.After(Duration(m.rng.Intn(900)+100), tick)
	}
	env.After(50, tick)
	env.RunUntil(Time(30 * Microsecond))
	busy := cpu.Snapshot().busy
	m.note("env", "end", fmt.Sprintf("live=%d busy=a:%v,b:%v,c:%v,d:%v", env.Live(), busy["a"], busy["b"], busy["c"], busy["d"]))
	env.Close()
	slices.Sort(m.closed)
	m.note("env", "close", fmt.Sprintf("live=%d unwound=%s", env.Live(), strings.Join(m.closed, ",")))
	return m.log
}

// TestPrimitivesTraceGolden holds every blocking primitive, process form and
// continuation form, to the event order recorded in
// testdata/primitives.golden: the instants, the events dispatched at each
// resume and every result, for three seeds. Regenerate it with
//
//	go test ./internal/sim/ -run TestPrimitivesTraceGolden -update
//
// only for a change that means to alter the kernel's event order.
func TestPrimitivesTraceGolden(t *testing.T) {
	var b strings.Builder
	for _, seed := range []int64{1, 2, 3} {
		fmt.Fprintf(&b, "# seed %d\n", seed)
		for _, l := range runTraceMix(seed) {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "primitives.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("trace diverges at line %d:\n got  %s\n want %s", i+1, g[i], w[i])
			}
		}
		t.Fatalf("trace has %d lines, golden %d", len(g), len(w))
	}
}
