package harness

import (
	"bytes"
	"fmt"

	"nvmetro/internal/device"
	"nvmetro/internal/extfs"
	"nvmetro/internal/fio"
	"nvmetro/internal/lsm"
	"nvmetro/internal/sim"
	"nvmetro/internal/stack"
	"nvmetro/internal/ycsb"
)

// encryptionKey is the fixed 512-bit XTS key used across the experiments.
var encryptionKey = bytes.Repeat([]byte{0x42, 0x17}, 32)

// solFactory builds a solution on a freshly created host (and, for
// replication, its remote peer).
type solFactory func(env *sim.Env, h *stack.Host) stack.Solution

// basicSolutions is the Fig. 3/4/6/11 lineup, in the paper's legend order.
func basicSolutions() []namedSol {
	return []namedSol{
		{"NVMetro", func(env *sim.Env, h *stack.Host) stack.Solution { return stack.NewNVMetro(h) }},
		{"MDev", func(env *sim.Env, h *stack.Host) stack.Solution { return stack.NewMDev(h) }},
		{"Passthrough", func(env *sim.Env, h *stack.Host) stack.Solution { return stack.NewPassthrough(h) }},
		{"QEMU", func(env *sim.Env, h *stack.Host) stack.Solution { return stack.NewQEMU(h) }},
		{"Vhost", func(env *sim.Env, h *stack.Host) stack.Solution { return stack.NewVhostSCSI(h) }},
		{"SPDK", func(env *sim.Env, h *stack.Host) stack.Solution { return stack.NewSPDK(h) }},
	}
}

// encSolutions is the Fig. 7/8/12 lineup.
func encSolutions() []namedSol {
	return []namedSol{
		{"NVMetro Encr.", func(env *sim.Env, h *stack.Host) stack.Solution {
			return stack.NewNVMetro(h).WithEncryption(encryptionKey, false)
		}},
		{"NVMetro SGX", func(env *sim.Env, h *stack.Host) stack.Solution {
			return stack.NewNVMetro(h).WithEncryption(encryptionKey, true)
		}},
		{"dm-crypt", func(env *sim.Env, h *stack.Host) stack.Solution {
			return stack.NewVhostDMCrypt(h, encryptionKey)
		}},
	}
}

// repSolutions is the Fig. 9/10/13 lineup. Each factory builds a remote
// host with the secondary drive connected over the simulated fabric.
func repSolutions() []namedSol {
	remote := func(env *sim.Env) *stack.RemoteHost {
		p := device.Default970EvoPlus()
		return stack.NewRemoteHost(env, 4, p, device.NullStore{})
	}
	return []namedSol{
		{"NVMetro Repl.", func(env *sim.Env, h *stack.Host) stack.Solution {
			return stack.NewNVMetro(h).WithReplication(remote(env).Secondary())
		}},
		{"dm-mirror", func(env *sim.Env, h *stack.Host) stack.Solution {
			return stack.NewVhostDMMirror(h, remote(env).Secondary())
		}},
	}
}

type namedSol struct {
	name string
	mk   solFactory
}

// windows returns (warmup, duration) for throughput runs.
func (o Options) windows() (sim.Duration, sim.Duration) {
	if o.Quick {
		return 1 * sim.Millisecond, 8 * sim.Millisecond
	}
	return 2 * sim.Millisecond, 20 * sim.Millisecond
}

// latWindows returns (warmup, duration) for fixed-rate latency runs.
func (o Options) latWindows() (sim.Duration, sim.Duration) {
	if o.Quick {
		return 2 * sim.Millisecond, 30 * sim.Millisecond
	}
	return 2 * sim.Millisecond, 100 * sim.Millisecond
}

// newBed builds a fresh testbed host (12 cores, 4 reserved for the guest,
// matching the PowerEdge R420 with a 4-core VM).
func newBed(o Options, backing device.Store) (*sim.Env, *stack.Host) {
	env := sim.New(o.Seed + 1)
	p := stack.DefaultParams()
	return env, stack.NewHost(env, 12, 4, p, backing)
}

// until steps env in step-sized slices until done holds or deadline
// passes, and reports done: the one loop every phase that waits on the
// simulation drives.
func until(env *sim.Env, step sim.Duration, deadline sim.Time, done func() bool) bool {
	for !done() && env.Now() < deadline {
		env.RunUntil(env.Now().Add(step))
	}
	return done()
}

// drainOutstanding runs the simulation until outstanding() reaches zero
// (or 2 s pass), reporting whether it drained.
func drainOutstanding(env *sim.Env, outstanding func() int) bool {
	return until(env, sim.Millisecond, env.Now().Add(2*sim.Second), func() bool { return outstanding() == 0 })
}

// driveGuest runs fn as a guest program and drives the simulation until
// it finishes (within 2 s).
func driveGuest(env *sim.Env, name string, fn func(p *sim.Proc)) {
	done := false
	env.Go(name, func(p *sim.Proc) {
		fn(p)
		done = true
	})
	if !until(env, sim.Millisecond, env.Now().Add(2*sim.Second), func() bool { return done }) {
		panic("harness: guest program " + name + " did not finish")
	}
}

// runFio provisions one 4-vCPU VM under the solution and runs cfg with the
// given job count.
func runFio(o Options, mk solFactory, cfg fio.Config, jobs int) fio.Result {
	env, h := newBed(o, device.NullStore{})
	defer env.Close()
	v := h.NewVM(4, 512<<20)
	sol := mk(env, h)
	disk := sol.Provision(v, device.WholeNamespace(h.Dev, 1))
	return fio.Run(env, h.CPU, fio.Targets(v, disk, jobs), cfg)
}

// runFioScaled runs the Fig. 5 setup: n single-vCPU VMs over partitions of
// a shared namespace, all served by one shared NVMetro worker.
func runFioScaled(o Options, n int, cfg fio.Config) fio.Result {
	env := sim.New(o.Seed + 1)
	p := stack.DefaultParams()
	h := stack.NewHost(env, 12, 8, p, device.NullStore{})
	defer env.Close()
	sol := stack.NewNVMetroShared(h, 1)
	parts := device.Carve(h.Dev, 1, n)
	var targets []fio.Target
	for i := 0; i < n; i++ {
		v := h.NewVM(1, 16<<20)
		disk := sol.Provision(v, parts[i])
		targets = append(targets, fio.Target{Disk: disk, VM: v, VCPU: v.VCPU(0)})
	}
	return fio.Run(env, h.CPU, targets, cfg)
}

// runYCSB runs one workload with the given job count (each job its own DB
// instance on its own filesystem window, as in the paper) and returns its
// throughput in kops/s.
func runYCSB(o Options, mk solFactory, w ycsb.Workload, jobs int) float64 {
	env, h := newBed(o, device.NewMemStore(512))
	defer env.Close()
	v := h.NewVM(4, 512<<20)
	sol := mk(env, h)
	disk := sol.Provision(v, device.WholeNamespace(h.Dev, 1))

	cfg := ycsb.DefaultConfig()
	if o.Quick {
		cfg.Records = 2500
		cfg.Duration = 20 * sim.Millisecond
		cfg.Warmup = 2 * sim.Millisecond
	}

	loaded := 0
	start := sim.NewCond(env)
	var measFrom, measTo sim.Time
	clients := make([]*ycsb.Client, jobs)

	window := disk.Blocks() / uint64(jobs)
	for j := 0; j < jobs; j++ {
		j := j
		env.Go(fmt.Sprintf("ycsb-job%d", j), func(p *sim.Proc) {
			vcpu := v.VCPU(j % v.NumVCPUs())
			fs, err := extfs.MountAt(p, v, disk, vcpu, uint64(j)*window, window)
			if err != nil {
				panic(err)
			}
			db, err := lsm.Open(p, fs, vcpu)
			if err != nil {
				panic(err)
			}
			c := ycsb.NewClient(db, cfg, o.Seed+int64(j))
			clients[j] = c
			if err := c.Load(p); err != nil {
				panic(err)
			}
			loaded++
			start.Wait()
			if err := c.Run(p, w, measFrom, measTo); err != nil {
				panic(err)
			}
		})
	}
	if !until(env, 50*sim.Millisecond, sim.Time(1000*sim.Second), func() bool { return loaded == jobs }) {
		panic("harness: YCSB load phase did not converge")
	}
	measFrom = env.Now().Add(cfg.Warmup)
	measTo = measFrom.Add(cfg.Duration)
	start.Broadcast()
	env.RunUntil(measFrom)
	env.RunUntil(measTo)

	var ops uint64
	for _, c := range clients {
		if c != nil {
			ops += c.Ops.Value()
		}
	}
	return float64(ops) / cfg.Duration.Seconds() / 1e3
}
