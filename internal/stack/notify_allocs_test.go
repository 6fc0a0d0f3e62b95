package stack_test

import (
	"runtime"
	"strings"
	"testing"

	"nvmetro/internal/vm"
)

// notifyPackages are the packages a warm notify-path command must not
// allocate in.
var notifyPackages = []string{"uif", "storfn", "blockdev", "nvmeof", "cache"}

// allocsByFunc sums the heap objects the memory profile holds, by the
// function that made each allocation: the first frame outside the runtime.
func allocsByFunc() map[string]int64 {
	runtime.GC()
	runtime.GC() // the profile lags a cycle behind
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	out := map[string]int64{}
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if funcPackage(f.Function) != "runtime" || !more {
				out[f.Function] += r.AllocObjects
				break
			}
		}
	}
	return out
}

// funcPackage is the last element of a function's package path.
func funcPackage(fn string) string {
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		fn = fn[i+1:]
	}
	if i := strings.IndexByte(fn, '.'); i >= 0 {
		fn = fn[:i]
	}
	return fn
}

func contains(set []string, s string) bool {
	for _, x := range set {
		if x == s {
			return true
		}
	}
	return false
}

// TestNotifyPathAllocs drives the encrypted, replicated and cached volumes
// of a notify rig at a fixed queue depth — each slot's vm.Req resubmitted,
// with the next LBA and operation, from a callback event at its completion —
// and requires that once warm, commands allocate nothing in the notify
// path's packages: requests, ring bios, ring waits, pending commands,
// capsules, target commands and cache lines are recycled, and every
// continuation is bound once. The cached volume's working set is twice its
// capacity, so it evicts and recycles lines throughout. The router has its
// own gate (TestRoutedPathAllocs), and the DES kernel's own books are outside
// these packages. The race detector's instrumentation allocates, so the gate
// is not checked under -race.
func TestNotifyPathAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation gates are not checked under the race detector")
	}
	const (
		qd       = 4
		blocks   = 8     // 4 KiB
		extent   = 4096  // blocks each volume addresses: 2 MiB
		warm     = 20000 // commands before the measured ones
		measured = 3000
	)
	r := notifyRig(extent / 2)
	defer r.env.Close()
	var issued, completed int
	var before map[string]int64
	for g, grp := range r.groups {
		tg := grp.Targets[0]
		for k := 0; k < qd; k++ {
			base, pages, err := tg.VM.Mem.AllocBuffer(blocks * 512)
			if err != nil {
				t.Fatal(err)
			}
			req := &vm.Req{Blocks: blocks, Buf: base, BufPages: pages}
			n := k
			submit := func() {
				if issued == warm {
					runtime.MemProfileRate = 1
					before = allocsByFunc()
				}
				if issued == warm+measured {
					r.env.Stop()
					return
				}
				issued++
				n += qd
				req.Reset()
				req.Op = vm.OpRead
				if n%3 == g%3 {
					req.Op = vm.OpWrite
				}
				req.LBA = uint64(n*7919%(extent/blocks)) * blocks
				tg.Disk.SubmitFunc(tg.VCPU, req, func() {})
			}
			req.OnDone = func(*vm.Req) {
				if !req.Status.OK() {
					t.Errorf("%s: %v", req.Op, req.Status)
				}
				completed++
				r.env.After(0, submit)
			}
			r.env.After(0, submit)
		}
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	r.env.Run()
	after := allocsByFunc()
	if issued != warm+measured || before == nil {
		t.Fatalf("%d commands issued, %d completed; want %d", issued, completed, warm+measured)
	}
	for fn, n := range after {
		if n -= before[fn]; n != 0 && contains(notifyPackages, funcPackage(fn)) {
			t.Errorf("%d warm commands allocated %d objects in %s", measured, n, fn)
		}
	}
}
