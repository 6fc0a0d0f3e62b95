package core

import (
	"nvmetro/internal/nvme"
)

// NotifyQueues is the notify-path endpoint: a submission/completion queue
// pair shared between the router and one userspace I/O function. In the
// real system these rings are mmap()ed file descriptors; here they are the
// same ring structures, with wake-up callbacks standing in for epoll.
//
// The router pushes mediated commands (CID field = notify tag) to the NSQ;
// the UIF pops them, processes request data directly in the VM's memory,
// and pushes a status to the NCQ.
type NotifyQueues struct {
	vc  *Controller
	nsq *nvme.SQ
	ncq *nvme.CQ

	// OnNotify is installed by the UIF framework; the router calls it when
	// new commands are queued (edge-triggered, like an eventfd).
	OnNotify func()
}

// AttachUIF creates the notify queues for this controller with the given
// depth. One attachment per controller; calling again replaces it (the
// "migrate storage functions on the fly" path).
func (vc *Controller) AttachUIF(depth uint32) *NotifyQueues {
	nq := &NotifyQueues{
		vc:  vc,
		nsq: nvme.NewSQ(0, depth),
		ncq: nvme.NewCQ(0, depth),
	}
	nq.ncq.OnPost = vc.markReady
	vc.nq = nq
	vc.w.rewired = true
	// A notify consumer means the classifier's verdict is about to matter
	// (the usual next step is loading an NQ-routing program): fence the
	// direct mapping now, synchronously, like a classifier hot-swap.
	vc.refreshPromotion()
	return nq
}

// DetachUIF removes the notify attachment.
func (vc *Controller) DetachUIF() {
	vc.nq = nil
	vc.w.rewired = true
	vc.refreshPromotion()
}

func (nq *NotifyQueues) notify() {
	if nq.OnNotify != nil {
		nq.OnNotify()
	}
}

// Mem returns the VM's memory, which the UIF maps to read and write request
// data pages in place (zero-copy, as in the paper).
func (nq *NotifyQueues) Mem() nvme.Memory { return nq.vc.vm.Mem }

// BlockShift returns log2 of the device block size, needed by UIFs to
// interpret command LBA fields.
func (nq *NotifyQueues) BlockShift() uint8 { return nq.vc.part.Dev.Params().LBAShift }

// VMID identifies the VM this attachment serves (UIF processes can serve
// several VMs at once).
func (nq *NotifyQueues) VMID() int { return nq.vc.vm.ID }

// Pop retrieves the next exported command; the returned tag must be passed
// back to Complete. UIF-side API.
func (nq *NotifyQueues) Pop(cmd *nvme.Command) (tag uint16, ok bool) {
	if !nq.nsq.Pop(cmd) {
		return 0, false
	}
	return cmd.CID(), true
}

// Pending reports how many exported commands are waiting.
func (nq *NotifyQueues) Pending() uint32 { return nq.nsq.Len() }

// Complete posts the UIF's result for a tag and nudges the router worker.
// UIF-side API.
func (nq *NotifyQueues) Complete(tag uint16, status nvme.Status) bool {
	if !nq.ncq.Post(tag, 0, 0, status, 0) {
		return false
	}
	nq.vc.w.hint()
	return true
}

// hintRouter is exposed for UIF frameworks that batch completions.
func (nq *NotifyQueues) hintRouter() { nq.vc.w.hint() }
