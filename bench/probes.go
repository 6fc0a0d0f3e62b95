package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"nvmetro/internal/blockdev"
	"nvmetro/internal/cache"
	"nvmetro/internal/core"
	"nvmetro/internal/cow"
	"nvmetro/internal/device"
	"nvmetro/internal/ebpf"
	"nvmetro/internal/guestmem"
	"nvmetro/internal/integrity"
	"nvmetro/internal/metrics"
	"nvmetro/internal/nvme"
	"nvmetro/internal/qos"
	"nvmetro/internal/shard/ring"
	"nvmetro/internal/sim"
	"nvmetro/internal/stack"
	"nvmetro/internal/storfn"
	"nvmetro/internal/vm"
	"nvmetro/internal/xts"
)

// probe times calls into one layer's exported functions with fixed inputs.
// run executes n calls and returns the host time they took, excluding its
// own set-up; the reported cost is that time per call.
type probe struct {
	name string
	unit string // "ns" or "us"
	run  func(n int) time.Duration
}

// timed returns how long fn takes.
func timed(fn func()) time.Duration {
	t := time.Now()
	fn()
	return time.Since(t)
}

// runProbes runs every probe for about target host time each, in the way
// testing.B sizes b.N, and records one probe.<metric> span per probe.
func runProbes(res *result, tr *tracer, target time.Duration) {
	for _, p := range probes {
		sp := tr.begin("probe." + p.name)
		n, d := 1, time.Duration(0)
		for {
			d = p.run(n)
			if d >= target || n >= 1e9 {
				break
			}
			next := n * 100
			if d > 0 {
				if want := int(float64(n) * 1.2 * float64(target) / float64(d)); want < next {
					next = want
				}
			}
			if next <= n {
				next = n + 1
			}
			n = next
		}
		sp.end()
		if sp != nil {
			sp.Calls = int64(n)
		}
		per := float64(d.Nanoseconds()) / float64(n)
		if p.unit == "us" {
			per /= 1e3
		}
		res.set(p.name, per, p.unit)
	}
}

// simRun drives body as one simulated process to completion on a fresh
// environment and returns the host time of the run.
func simRun(setup func(env *sim.Env) func(p *sim.Proc)) time.Duration {
	env := sim.New(1)
	defer env.Close()
	body := setup(env)
	done := false
	env.Go("probe", func(p *sim.Proc) {
		body(p)
		done = true
		env.Stop()
	})
	d := timed(func() { env.RunUntil(sim.Time(1 << 62)) })
	if !done {
		panic("bench: probe process did not finish")
	}
	return d
}

// hopProbe times QD1 4 KiB reads through a minimal 1-VM rig: routed (own
// router worker, classifier runs) or promoted (1-shard fleet, direct map).
func hopProbe(promoted bool) func(n int) time.Duration {
	return func(n int) time.Duration {
		return simRun(func(env *sim.Env) func(p *sim.Proc) {
			h := stack.NewHost(env, 4, 1, stack.DefaultParams(), device.NullStore{})
			v := h.NewVM(1, 16<<20)
			sol := stack.NewNVMetro(h)
			if promoted {
				sol = stack.NewNVMetroSharded(h, 1)
			}
			disk := sol.Provision(v, device.WholeNamespace(h.Dev, 1))
			base, pages, err := v.Mem.AllocBuffer(4096)
			if err != nil {
				panic(err)
			}
			return func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					req := &vm.Req{Op: vm.OpRead, LBA: uint64(i%1024) * 8, Blocks: 8, Buf: base, BufPages: pages}
					if st := vm.SubmitAndWait(p, disk, v.VCPU(0), req); !st.OK() {
						panic(fmt.Sprintf("bench: hop probe I/O %d: %v", i, st))
					}
				}
				if n > 1 && sol.ControllerFor(v).Promoted() != promoted {
					panic("bench: hop probe ran on the wrong dispatch tier")
				}
			}
		})
	}
}

// shippedClassifiers returns the default, partition, encryption and cache
// classifiers over one fixed partition.
func shippedClassifiers() []*ebpf.Program {
	part := device.Partition{Start: 4096, Blocks: 8192}
	p1, _ := storfn.PartitionClassifier(part)
	p2, _ := storfn.EncryptorClassifier(part)
	p3, _ := storfn.CacheClassifier(part, core.NewHotHints(3, 1<<10), 2)
	return []*ebpf.Program{core.DefaultClassifier(), p1, p2, p3}
}

// readCtx is a classifier context holding an in-partition 4 KiB read.
func readCtx() []byte {
	ctx := make([]byte, core.CtxSize)
	cmd := ctx[core.CtxOffCmd:]
	cmd[0] = nvme.OpRead
	binary.LittleEndian.PutUint64(cmd[40:], 128)
	binary.LittleEndian.PutUint32(cmd[48:], 7)
	return ctx
}

func mustCompile(p *ebpf.Program, v *ebpf.Verifier) *ebpf.CompiledProgram {
	cp, err := ebpf.Compile(p, v)
	if err != nil {
		panic(err)
	}
	return cp
}

// classifierRun times n passes over the four shipped classifiers, one run
// each per pass; classifiers may rewrite the command, so every run starts
// from a fresh copy of the context.
func classifierRun(compiled bool) func(n int) time.Duration {
	return func(n int) time.Duration {
		progs := shippedClassifiers()
		var cps []*ebpf.CompiledProgram
		for _, p := range progs {
			cps = append(cps, mustCompile(p, core.NewVerifier()))
		}
		m := ebpf.NewVM(nil)
		tmpl, ctx := readCtx(), make([]byte, core.CtxSize)
		d := timed(func() {
			for i := 0; i < n; i++ {
				for k := range progs {
					copy(ctx, tmpl)
					var err error
					if compiled {
						_, err = m.RunCompiled(cps[k], ctx)
					} else {
						_, err = m.Run(progs[k], ctx)
					}
					if err != nil {
						panic(err)
					}
				}
			}
		})
		return d / time.Duration(len(progs))
	}
}

// cowGolden seals a golden store of the given size in 512 B blocks.
func cowGolden(blocks, cacheChunks uint64) *cow.Store {
	g := cow.NewStore(cow.NewIndex(cow.Config{BlockSize: 512, CacheChunks: cacheChunks}), blocks, nil)
	g.WriteBlocks(0, goldenPayload(blocks))
	g.Snapshot()
	return g
}

var probes = []probe{
	{"sim.sleep_wake_ns", "ns", func(n int) time.Duration {
		return simRun(func(env *sim.Env) func(p *sim.Proc) {
			return func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					p.Sleep(sim.Microsecond)
				}
			}
		})
	}},
	{"sim.after_cb_ns", "ns", func(n int) time.Duration {
		env := sim.New(1)
		defer env.Close()
		left := n
		var tick func()
		tick = func() {
			if left--; left > 0 {
				env.After(sim.Microsecond, tick)
			}
		}
		env.After(sim.Microsecond, tick)
		return timed(func() { env.Run() })
	}},
	{"sim.switch_ns", "ns", func(n int) time.Duration {
		// Two processes over a Cond pair: each round trip is two switches.
		return simRun(func(env *sim.Env) func(p *sim.Proc) {
			c1, c2 := sim.NewCond(env), sim.NewCond(env)
			rounds := (n + 1) / 2
			env.Go("pong", func(p *sim.Proc) {
				for i := 0; i < rounds; i++ {
					c1.Wait()
					c2.Signal(nil)
				}
			})
			return func(p *sim.Proc) {
				p.Yield() // let pong park on c1 first
				for i := 0; i < rounds; i++ {
					c1.Signal(nil)
					c2.Wait()
				}
			}
		})
	}},
	{"sim.core_exec_ns", "ns", func(n int) time.Duration {
		return simRun(func(env *sim.Env) func(p *sim.Proc) {
			th := sim.NewCPU(env, 1).ThreadOn(0, "router")
			return func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					th.Exec(p, 250*sim.Nanosecond)
				}
			}
		})
	}},
	{"sim.spawn_ns", "ns", func(n int) time.Duration {
		return simRun(func(env *sim.Env) func(p *sim.Proc) {
			short := func(c *sim.Proc) { c.Sleep(100 * sim.Nanosecond) }
			return func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					env.Go("short", short)
					p.Sleep(sim.Microsecond)
				}
			}
		})
	}},
	{"core.hop_routed_ns", "ns", hopProbe(false)},
	{"core.hop_promoted_ns", "ns", hopProbe(true)},
	{"ebpf.verify_us", "us", func(n int) time.Duration {
		progs := shippedClassifiers()
		return timed(func() {
			for i := 0; i < n; i++ {
				for _, p := range progs {
					if err := core.NewVerifier().Verify(p); err != nil {
						panic(err)
					}
				}
			}
		})
	}},
	{"ebpf.compile_us", "us", func(n int) time.Duration {
		// ebpf.Compile is the exported load entry point: verify + translate.
		progs := shippedClassifiers()
		return timed(func() {
			for i := 0; i < n; i++ {
				for _, p := range progs {
					mustCompile(p, core.NewVerifier())
				}
			}
		})
	}},
	{"ebpf.static_verdict_us", "us", func(n int) time.Duration {
		var cps []*ebpf.CompiledProgram
		for _, p := range shippedClassifiers() {
			cps = append(cps, mustCompile(p, core.NewVerifier()))
		}
		return timed(func() {
			for i := 0; i < n; i++ {
				for _, cp := range cps {
					cp.StaticVerdict()
				}
			}
		})
	}},
	{"ebpf.run_compiled_ns", "ns", classifierRun(true)},
	{"ebpf.run_interp_ns", "ns", classifierRun(false)},
	{"ebpf.run_maplookup_ns", "ns", func(n int) time.Duration {
		arr := ebpf.NewArrayMap(8, 4)
		cp := mustCompile(ebpf.NewBuilder().
			MovImm(ebpf.R2, 0).
			Store(ebpf.SizeW, ebpf.R10, -4, ebpf.R2).
			LoadMap(ebpf.R1, arr).
			MovReg(ebpf.R2, ebpf.R10).AddImm(ebpf.R2, -4).
			Call(ebpf.HelperMapLookup).
			JumpImm(ebpf.JmpEq, ebpf.R0, 0, "miss").
			Load(ebpf.SizeDW, ebpf.R0, ebpf.R0, 0).
			Exit().
			Label("miss").Return(0).MustProgram("maplookup"), &ebpf.Verifier{})
		m := ebpf.NewVM(nil)
		return timed(func() {
			for i := 0; i < n; i++ {
				if _, err := m.RunCompiled(cp, nil); err != nil {
					panic(err)
				}
			}
		})
	}},
	{"nvme.sq_push_pop_ns", "ns", func(n int) time.Duration {
		q := nvme.NewSQ(1, 1024)
		c := nvme.NewRW(nvme.OpRead, 1, 1, 0, 8, 0x1000, 0)
		var got nvme.Command
		return timed(func() {
			for i := 0; i < n; i++ {
				q.Push(&c)
				q.Pop(&got)
			}
		})
	}},
	{"nvme.prp_walk_4k_ns", "ns", prpWalk(1)},
	{"nvme.prp_walk_128k_ns", "ns", prpWalk(32)},
	{"guestmem.copy_4k_ns", "ns", func(n int) time.Duration {
		// One write into and one read out of guest memory per pair of calls.
		mem := guestmem.New(16 << 20)
		addr := mem.MustAllocPages(256)
		buf := make([]byte, 4096)
		return timed(func() {
			for i := 0; i < n; i += 2 {
				a := addr + uint64(i%256)*guestmem.PageSize
				if err := mem.WriteAt(buf, a); err != nil {
					panic(err)
				}
				if err := mem.ReadAt(buf, a); err != nil {
					panic(err)
				}
			}
		})
	}},
	{"device.null_cmd_ns", "ns", func(n int) time.Duration {
		// 512 B reads straight into a device queue pair at QD32, no router.
		return simRun(func(env *sim.Env) func(p *sim.Proc) {
			dev := device.New(env, device.Default970EvoPlus(), device.NullStore{})
			mem := guestmem.New(16 << 20)
			page := mem.MustAllocPages(1)
			qp := dev.CreateQueuePair(64, mem)
			posted := sim.NewCond(env)
			qp.CQ.OnPost = func() { posted.Signal(nil) }
			return func(p *sim.Proc) {
				var e nvme.Completion
				sent, done := 0, 0
				for done < n {
					for sent < n && sent-done < 32 {
						c := nvme.NewRW(nvme.OpRead, uint16(sent), 1, uint64(sent%4096), 1, page, 0)
						qp.SQ.Push(&c)
						sent++
					}
					dev.Ring(qp.SQ.ID)
					for !qp.CQ.Peek() {
						posted.Wait()
					}
					for qp.CQ.Pop(&e) {
						done++
					}
				}
			}
		})
	}},
	{"device.mem_rw_4k_ns", "ns", func(n int) time.Duration {
		s := device.NewMemStore(512)
		buf := make([]byte, 4096)
		return timed(func() {
			for i := 0; i < n; i++ {
				lba := uint64(i%4096) * 8
				s.WriteBlocks(lba, buf)
				s.ReadBlocks(lba, buf)
			}
		})
	}},
	{"ring.push_pop_ns", "ns", func(n int) time.Duration {
		q := ring.New()
		fn := func() {}
		return timed(func() {
			for i := 0; i < n; i++ {
				q.Push(fn)
				q.Pop()
			}
		})
	}},
	{"qos.admit_ns", "ns", func(n int) time.Duration {
		a := qos.NewArbiter(qos.Config{})
		t := a.AddTenant("t", qos.TenantConfig{Weight: 1})
		return timed(func() {
			for i := 0; i < n; i++ {
				if a.Eligible(t, 4096, sim.Time(i)) {
					a.Serve(t, 4096, sim.Time(i))
				}
			}
		})
	}},
	{"qos.scan8_ns", "ns", func(n int) time.Duration {
		// One arbitration round over 8 backlogged, rate-capped tenants.
		a := qos.NewArbiter(qos.Config{})
		for i := 0; i < 8; i++ {
			a.AddTenant("t", qos.TenantConfig{Weight: float64(1 + i), IOPS: 1e9})
		}
		ts := a.Tenants()
		return timed(func() {
			for i := 0; i < n; i++ {
				now := sim.Time(i)
				var best *qos.Tenant
				for _, t := range ts {
					if a.Eligible(t, 4096, now) && (best == nil || a.Before(t, best)) {
						best = t
					}
				}
				if best != nil {
					a.Serve(best, 4096, now)
				}
			}
		})
	}},
	{"cow.read_shared_4k_ns", "ns", func(n int) time.Duration {
		c := cowGolden(8192, 128).Clone()
		defer c.Close()
		buf := make([]byte, 4096)
		return timed(func() {
			for i := 0; i < n; i++ {
				c.ReadBlocks(uint64(i%1024)*8, buf)
			}
		})
	}},
	{"cow.write_break_ns", "ns", func(n int) time.Duration {
		// First sub-chunk write into a shared chunk: a read-modify-write
		// break. The clone is re-derived once per sweep of the image.
		g := cowGolden(8192, 0)
		const chunks = 8192 / 64
		c := g.Clone()
		buf := make([]byte, 512)
		d := timed(func() {
			for i := 0; i < n; i++ {
				if i%chunks == 0 && i > 0 {
					c.Close()
					c = g.Clone()
				}
				c.WriteBlocks(uint64(i%chunks)*64+1, buf)
			}
		})
		c.Close()
		return d
	}},
	{"cow.clone_us", "us", func(n int) time.Duration {
		g := cowGolden(fleetImageBlocks, 0)
		return timed(func() {
			for i := 0; i < n; i++ {
				g.Clone().Close()
			}
		})
	}},
	{"cache.hit_ns", "ns", func(n int) time.Duration {
		c := cache.New(cache.DefaultConfig())
		buf := make([]byte, 4096)
		for lba := uint64(0); lba < 8192; lba += 8 {
			c.CommitFill(c.BeginFill(lba, 8), buf)
		}
		return timed(func() {
			for i := 0; i < n; i++ {
				if !c.Read(uint64(i%1024)*8, 8, buf) {
					panic("bench: cache.hit probe missed")
				}
			}
		})
	}},
	{"cache.miss_fill_ns", "ns", func(n int) time.Duration {
		// A sweep four times the capacity: every read misses, every fill
		// installs and (once full) evicts.
		cfg := cache.DefaultConfig()
		c := cache.New(cfg)
		buf := make([]byte, 4096)
		span := 4 * cfg.CapacityBlocks
		return timed(func() {
			for i := 0; i < n; i++ {
				lba := uint64(i) * 8 % span
				if c.Read(lba, 8, buf) {
					panic("bench: cache.miss_fill probe hit")
				}
				c.CommitFill(c.BeginFill(lba, 8), buf)
			}
		})
	}},
	{"integrity.stamp_4k_ns", "ns", func(n int) time.Duration {
		dom, err := integrity.NewDomain(512)
		if err != nil {
			panic(err)
		}
		g := dom.Guard("probe")
		buf := make([]byte, 4096)
		return timed(func() {
			for i := 0; i < n; i++ {
				g.Stamp(uint64(i%4096)*8, buf)
			}
		})
	}},
	{"integrity.verify_4k_ns", "ns", func(n int) time.Duration {
		dom, err := integrity.NewDomain(512)
		if err != nil {
			panic(err)
		}
		g := dom.Guard("probe")
		buf := make([]byte, 4096)
		for lba := uint64(0); lba < 4096*8; lba += 8 {
			g.Stamp(lba, buf)
		}
		return timed(func() {
			for i := 0; i < n; i++ {
				if !g.Verify(uint64(i%4096)*8, buf) {
					panic("bench: integrity.verify probe failed")
				}
			}
		})
	}},
	{"xts.encrypt_4k_ns", "ns", xtsProbe(true)},
	{"xts.decrypt_4k_ns", "ns", xtsProbe(false)},
	{"nvmeof.remote_write_4k_ns", "ns", func(n int) time.Duration {
		// Initiator.SubmitBio over a default Link to a NullStore target.
		return simRun(func(env *sim.Env) func(p *sim.Proc) {
			remote := stack.NewRemoteHost(env, 2, device.Default970EvoPlus(), device.NullStore{})
			ini := remote.Secondary()(device.Partition{})
			th := sim.NewCPU(env, 1).ThreadOn(0, "probe")
			done := sim.NewCond(env)
			buf := make([]byte, 4096)
			return func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					st := nvme.Status(0xffff)
					ini.SubmitBio(p, th, &blockdev.Bio{Op: blockdev.BioWrite, Sector: uint64(i%4096) * 8, Data: buf,
						OnDone: func(s nvme.Status) { st = s; done.Signal(nil) }})
					for st == 0xffff {
						done.Wait()
					}
					if !st.OK() {
						panic(fmt.Sprintf("bench: nvmeof probe write %d: %v", i, st))
					}
				}
			}
		})
	}},
	{"metrics.hist_record_ns", "ns", func(n int) time.Duration {
		h := metrics.NewHistogram()
		return timed(func() {
			for i := 0; i < n; i++ {
				h.Record(int64(i&0xfffff) + 50000)
			}
		})
	}},
}

// prpWalk times nvme.WalkPRP over a transfer of the given page count.
func prpWalk(npages int) func(n int) time.Duration {
	return func(n int) time.Duration {
		mem := guestmem.New(16 << 20)
		var pages []uint64
		for i := 0; i < npages; i++ {
			pages = append(pages, mem.MustAllocPages(1))
		}
		prp1, prp2, err := nvme.BuildPRP(mem, pages, func() uint64 { return mem.MustAllocPages(1) })
		if err != nil {
			panic(err)
		}
		nbytes := uint32(npages) * guestmem.PageSize
		return timed(func() {
			for i := 0; i < n; i++ {
				if _, err := nvme.WalkPRP(mem, prp1, prp2, nbytes); err != nil {
					panic(err)
				}
			}
		})
	}
}

// xtsProbe times one 4 KiB XTS-AES pass over eight 512 B sectors.
func xtsProbe(encrypt bool) func(n int) time.Duration {
	return func(n int) time.Duration {
		c := xts.Must(make([]byte, 64))
		buf := make([]byte, 4096)
		return timed(func() {
			for i := 0; i < n; i++ {
				var err error
				if encrypt {
					err = c.EncryptBlocks(buf, buf, uint64(i), 512)
				} else {
					err = c.DecryptBlocks(buf, buf, uint64(i), 512)
				}
				if err != nil {
					panic(err)
				}
			}
		})
	}
}
