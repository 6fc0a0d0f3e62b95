package blockdev

import (
	"fmt"

	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
)

// KernelAdapter implements NVMetro's kernel I/O path (core.KernelTarget):
// it translates mediated NVMe commands into bios against any BlockDevice —
// including device-mapper stacks — copying data between guest memory and
// kernel buffers. A small worker pool provides the kernel process context.
type KernelAdapter struct {
	dev   BlockDevice
	shift uint8 // device LBA shift for command interpretation
	queue []kaWork
	wake  *sim.Cond

	// Stats
	Translated uint64
}

type kaWork struct {
	cmd  nvme.Command
	mem  nvme.Memory
	done func(nvme.Status)
}

// NewKernelAdapter creates the adapter with the given worker threads.
func NewKernelAdapter(env *sim.Env, dev BlockDevice, lbaShift uint8, threads []*sim.Thread) *KernelAdapter {
	ka := &KernelAdapter{dev: dev, shift: lbaShift, wake: sim.NewCond(env)}
	for i, th := range threads {
		th := th
		env.Go(fmt.Sprintf("kernel/nvmetro-kq%d", i), func(p *sim.Proc) { ka.worker(p, th) })
	}
	return ka
}

// Submit implements core.KernelTarget.
func (ka *KernelAdapter) Submit(cmd nvme.Command, mem nvme.Memory, done func(nvme.Status)) {
	ka.queue = append(ka.queue, kaWork{cmd: cmd, mem: mem, done: done})
	ka.wake.Signal(nil)
}

func (ka *KernelAdapter) worker(p *sim.Proc, th *sim.Thread) {
	for {
		if len(ka.queue) == 0 {
			ka.wake.Wait()
			continue
		}
		w := ka.queue[0]
		ka.queue = ka.queue[1:]
		ka.process(p, th, w)
	}
}

func (ka *KernelAdapter) process(p *sim.Proc, th *sim.Thread, w kaWork) {
	ka.Translated++
	cmd := w.cmd
	switch cmd.Opcode() {
	case nvme.OpFlush:
		ka.submitWait(p, th, &Bio{Op: BioFlush}, w.done)
	case nvme.OpDSM:
		nsect := uint32(uint64(cmd.Blocks()) << ka.shift / SectorSize)
		ka.submitWait(p, th, &Bio{Op: BioDiscard, Sector: cmd.SLBA() << ka.shift / SectorSize, NSect: nsect}, w.done)
	case nvme.OpRead, nvme.OpWrite:
		nbytes := cmd.Blocks() << ka.shift
		segs, err := nvme.WalkPRP(w.mem, cmd.PRP1(), cmd.PRP2(), nbytes)
		if err != nil {
			w.done(nvme.SCDataXferError)
			return
		}
		buf := make([]byte, nbytes)
		sector := cmd.SLBA() << ka.shift / SectorSize
		if cmd.Opcode() == nvme.OpWrite {
			if err := nvme.ReadSegments(w.mem, segs, buf); err != nil {
				w.done(nvme.SCDataXferError)
				return
			}
			ka.submitWait(p, th, &Bio{Op: BioWrite, Sector: sector, Data: buf}, w.done)
		} else {
			ka.submitWait(p, th, &Bio{Op: BioRead, Sector: sector, Data: buf}, func(st nvme.Status) {
				if st.OK() {
					if err := nvme.WriteSegments(w.mem, segs, buf); err != nil {
						st = nvme.SCDataXferError
					}
				}
				w.done(st)
			})
		}
	default:
		// The kernel path only understands Linux storage semantics; the
		// paper notes NVMe- or vendor-specific commands must use the fast
		// path instead.
		w.done(nvme.SCInvalidOpcode)
	}
}

// submitWait submits the bio; the callback chain stays asynchronous so the
// worker can pipeline further requests.
func (ka *KernelAdapter) submitWait(p *sim.Proc, th *sim.Thread, b *Bio, done func(nvme.Status)) {
	b.OnDone = done
	SubmitAndWait(p, ka.dev, th, b)
}
