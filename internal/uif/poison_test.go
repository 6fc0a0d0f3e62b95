package uif_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nvmetro"
	"nvmetro/internal/device"
	"nvmetro/internal/harness"
	"nvmetro/internal/sim"
	"nvmetro/internal/stack"
	"nvmetro/internal/uif"
	"nvmetro/internal/vm"
)

// The tests in this file run with every request buffer overwritten (0xDB)
// the moment the framework takes it back, which is when the request's
// completion is posted. Anything that still reads such a buffer afterwards
// — a backend write bounced late, a cache install, a capsule on the fabric
// — then moves 0xDB bytes instead of data, and anything that still writes
// one corrupts the next request that gets it; the data checks below, the
// mirror fingerprints and the goldens would show either.

func poisoned(t *testing.T) {
	was := uif.PoisonReleased(true)
	t.Cleanup(func() { uif.PoisonReleased(was) })
}

// pattern is 4 KiB that no other (worker, round, slot) shares and that
// contains no 0xDB run.
func pattern(worker, round, slot int) []byte {
	b := make([]byte, 4096)
	for i := range b {
		b[i] = byte(i*7+worker*31+round*17+slot*5) & 0x7f
	}
	return b
}

const poisonWorkers, poisonRounds, poisonSlots = 8, 6, 4

// verifyWorkload runs poisonWorkers concurrent guests-in-a-guest over vol:
// each writes its slots with a fresh pattern every round and reads every
// slot back twice (the second read of a cached volume is a cache hit),
// comparing byte for byte. Non-OK completions are retried, so the workload
// rides out a supervised restart; midway hook, if set, runs once.
func verifyWorkload(t *testing.T, sys *nvmetro.System, vol *nvmetro.Volume, midway func()) {
	t.Helper()
	left := poisonWorkers
	done := sim.NewCond(sys.Env)
	for w := 0; w < poisonWorkers; w++ {
		sys.Env.Go(fmt.Sprintf("verify%d", w), func(p *sim.Proc) {
			defer func() { left--; done.Signal(nil) }()
			guest, vcpu := vol.VM, vol.VM.VCPU(w%vol.VM.NumVCPUs())
			base, pages, err := guest.Mem.AllocBuffer(4096)
			if err != nil {
				t.Error(err)
				return
			}
			io := func(op vm.Op, lba uint64) bool {
				for try := 0; try < 200; try++ {
					r := &nvmetro.Req{Op: op, LBA: lba, Blocks: 8, Buf: base, BufPages: pages}
					if vm.SubmitAndWait(p, vol.Disk, vcpu, r).OK() {
						return true
					}
					p.Sleep(200 * sim.Microsecond)
				}
				t.Errorf("worker %d: op %v at lba %d never succeeded", w, op, lba)
				return false
			}
			got := make([]byte, 4096)
			for round := 0; round < poisonRounds; round++ {
				if w == 0 && round == poisonRounds/2 && midway != nil {
					midway()
				}
				for slot := 0; slot < poisonSlots; slot++ {
					guest.Mem.WriteAt(pattern(w, round, slot), base)
					if !io(vm.OpWrite, uint64(w*poisonSlots+slot)*8) {
						return
					}
				}
				for pass := 0; pass < 2; pass++ {
					for slot := 0; slot < poisonSlots; slot++ {
						guest.Mem.WriteAt(make([]byte, 4096), base)
						if !io(vm.OpRead, uint64(w*poisonSlots+slot)*8) {
							return
						}
						guest.Mem.ReadAt(got, base)
						if !bytes.Equal(got, pattern(w, round, slot)) {
							t.Errorf("worker %d round %d slot %d pass %d: read back wrong data (first bytes % x)", w, round, slot, pass, got[:8])
							return
						}
					}
				}
			}
		})
	}
	if !sys.Run(10*nvmetro.Second, func(p *nvmetro.Proc) {
		for left > 0 {
			done.Wait()
		}
	}) {
		t.Fatal("workload did not finish")
	}
}

// TestPoisonedBuffersStorageFunctions drives every storage function, plain
// and supervised with its UIF killed mid-run, under poison-on-release.
func TestPoisonedBuffersStorageFunctions(t *testing.T) {
	poisoned(t)
	key := bytes.Repeat([]byte{0x3c, 0xa5}, 32)
	cachep := nvmetro.DefaultCacheParams()
	cachep.HotThreshold = 1 // every read goes through the cache UIF
	sup := nvmetro.DefaultSupervisePolicy()
	for _, c := range []struct {
		name string
		spec func(remote *nvmetro.RemoteHost) nvmetro.Spec
	}{
		{"encrypt", func(*nvmetro.RemoteHost) nvmetro.Spec {
			return nvmetro.Spec{Encrypt: &nvmetro.Encryption{Key: key}}
		}},
		{"encrypt-sgx", func(*nvmetro.RemoteHost) nvmetro.Spec {
			return nvmetro.Spec{Encrypt: &nvmetro.Encryption{Key: key, SGX: true}}
		}},
		{"replicate", func(r *nvmetro.RemoteHost) nvmetro.Spec { return nvmetro.Spec{Replicate: r} }},
		{"cache", func(*nvmetro.RemoteHost) nvmetro.Spec { return nvmetro.Spec{Cache: &cachep} }},
		{"encrypt-supervised", func(*nvmetro.RemoteHost) nvmetro.Spec {
			return nvmetro.Spec{Encrypt: &nvmetro.Encryption{Key: key}, Supervise: &sup}
		}},
		{"replicate-supervised", func(r *nvmetro.RemoteHost) nvmetro.Spec {
			return nvmetro.Spec{Replicate: r, Supervise: &sup}
		}},
		{"cache-supervised", func(*nvmetro.RemoteHost) nvmetro.Spec {
			return nvmetro.Spec{Cache: &cachep, Supervise: &sup}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := nvmetro.Defaults()
			store := device.NewMemStore(cfg.Params.Device.BlockSize())
			cfg.Store = store
			sys := nvmetro.NewSystem(cfg)
			defer sys.Close()
			rstore := device.NewMemStore(cfg.Params.Device.BlockSize())
			remote := stack.NewRemoteHost(sys.Env, 4, cfg.Params.Device, rstore)
			spec := c.spec(remote)
			vol, err := sys.Attach(sys.NewVM(2, 64<<20), sys.WholeDisk(), spec)
			if err != nil {
				t.Fatal(err)
			}
			var midway func()
			if spec.Supervise != nil {
				midway = func() { vol.Supervisor.Attachment().Kill() }
			}
			verifyWorkload(t, sys, vol, midway)
			if spec.Supervise != nil && vol.Supervisor.Attachment().State() != uif.AttHealthy {
				t.Errorf("the killed UIF was not restarted: %s", vol.Supervisor)
			}
			if spec.Replicate != nil && spec.Supervise == nil {
				// Unsupervised, every write was mirrored before it
				// completed: the two disks hold the same bytes.
				if pc, sc := store.ContentCRC(), rstore.ContentCRC(); pc != sc {
					t.Errorf("mirror diverged: primary %08x secondary %08x", pc, sc)
				}
			}
		})
	}
}

// TestPoisonedBuffersGoldens reruns the experiments whose traffic crosses
// the notify path — encryption (fig7), replication (fig9), the cache, and
// the ones whose timeouts, kills and restarts actually fire (resync, chaos,
// fault) — under poison-on-release and requires the checked-in quick CSVs
// byte for byte: mirror fingerprints, verify counters and error columns
// are in them.
func TestPoisonedBuffersGoldens(t *testing.T) {
	poisoned(t)
	for _, id := range []string{"fig7", "fig9", "cache", "resync", "chaos", "fault"} {
		t.Run(id, func(t *testing.T) {
			e, ok := harness.Get(id)
			if !ok {
				t.Fatalf("experiment %s not registered", id)
			}
			for _, tbl := range e.Run(harness.Options{Quick: true, Seed: 1}) {
				path := filepath.Join("..", "harness", "testdata", "golden-quick", tbl.ID+".csv")
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden for table %s: %v", tbl.ID, err)
				}
				if got := tbl.CSV(); got != string(want) {
					t.Errorf("table %s diverged from %s under poison-on-release:\n--- got ---\n%s--- want ---\n%s", tbl.ID, path, got, want)
				}
			}
		})
	}
}
