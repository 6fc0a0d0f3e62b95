package core

import (
	"encoding/binary"
	"fmt"

	"nvmetro/internal/nvme"
	"nvmetro/internal/vm"
)

// This file implements the virtual controller's admin command surface.
// The paper's compatibility criterion is that "all VMs supporting NVMe work
// with NVMetro by default without guest modifications": a real guest driver
// probes the controller with admin Identify / Get Features / Set Features
// before creating I/O queues. The router services these locally — admin
// commands never reach the physical device.

// Feature IDs (subset).
const (
	FeatNumQueues     uint32 = 0x07
	FeatIntCoalescing uint32 = 0x08
)

// maxQueuesAdvertised is what Set Features (Number of Queues) grants.
const maxQueuesAdvertised = 64

// HandleAdmin services one admin command against guest memory, returning
// the completion status and result dword. Identify writes its 4 KiB page to
// the command's PRP1.
func (vc *Controller) HandleAdmin(cmd *nvme.Command, mem nvme.Memory) (nvme.Status, uint32) {
	switch cmd.Opcode() {
	case nvme.AdminIdentify:
		return vc.adminIdentify(cmd, mem)
	case nvme.AdminGetFeature:
		return vc.adminGetFeatures(cmd)
	case nvme.AdminSetFeature:
		return vc.adminSetFeatures(cmd)
	case nvme.AdminCreateSQ, nvme.AdminCreateCQ, nvme.AdminDeleteSQ, nvme.AdminDeleteCQ:
		// Queue lifecycle goes through the in-memory CreateQP interface in
		// this implementation; a guest issuing raw queue-management
		// commands gets a clean error rather than silence.
		return nvme.SCInvalidField, 0
	case nvme.AdminAbort:
		// No speculative abort support: report "not found" per spec
		// semantics (bit 0 of DW0 set).
		return nvme.SCSuccess, 1
	case nvme.AdminGetLogPage:
		// Serve an empty log page of the requested size.
		nbytes := (cmd.CDW(10)>>16 + 1) * 4
		if nbytes > nvme.IdentifyPageSize {
			nbytes = nvme.IdentifyPageSize
		}
		if err := mem.WriteAt(make([]byte, nbytes), cmd.PRP1()); err != nil {
			return nvme.SCDataXferError, 0
		}
		return nvme.SCSuccess, 0
	}
	return nvme.SCInvalidOpcode, 0
}

func (vc *Controller) adminIdentify(cmd *nvme.Command, mem nvme.Memory) (nvme.Status, uint32) {
	cns := cmd.CDW(10) & 0xff
	var page []byte
	switch cns {
	case nvme.CNSController:
		page = vc.IdentifyController().Marshal()
	case nvme.CNSNamespace:
		if cmd.NSID() != 1 {
			return nvme.SCInvalidNS, 0
		}
		page = vc.part.Info().Marshal()
	case nvme.CNSActiveNS:
		page = make([]byte, nvme.IdentifyPageSize)
		binary.LittleEndian.PutUint32(page[0:4], 1) // single active NSID
	default:
		return nvme.SCInvalidField, 0
	}
	if err := mem.WriteAt(page, cmd.PRP1()); err != nil {
		return nvme.SCDataXferError, 0
	}
	return nvme.SCSuccess, 0
}

func (vc *Controller) adminGetFeatures(cmd *nvme.Command) (nvme.Status, uint32) {
	switch cmd.CDW(10) & 0xff {
	case FeatNumQueues:
		n := uint32(maxQueuesAdvertised - 1)
		return nvme.SCSuccess, n<<16 | n // NCQA | NSQA (0-based)
	case FeatIntCoalescing:
		return nvme.SCSuccess, 0
	}
	return nvme.SCInvalidField, 0
}

func (vc *Controller) adminSetFeatures(cmd *nvme.Command) (nvme.Status, uint32) {
	switch cmd.CDW(10) & 0xff {
	case FeatNumQueues:
		req := cmd.CDW(11)
		nsq := req & 0xffff
		ncq := req >> 16
		if nsq > maxQueuesAdvertised-1 {
			nsq = maxQueuesAdvertised - 1
		}
		if ncq > maxQueuesAdvertised-1 {
			ncq = maxQueuesAdvertised - 1
		}
		return nvme.SCSuccess, ncq<<16 | nsq
	case FeatIntCoalescing:
		return nvme.SCSuccess, 0
	}
	return nvme.SCInvalidField, 0
}

// VM returns the attached VM.
func (vc *Controller) VM() *vm.VM { return vc.vm }

// IdentifyController returns the virtual controller's identify page,
// implementing the admin Identify command surface.
func (vc *Controller) IdentifyController() nvme.ControllerInfo {
	return nvme.ControllerInfo{
		VID: 0x1b36, Serial: fmt.Sprintf("NVMETRO%08d", vc.vm.ID),
		Model: "NVMetro Virtual NVMe Controller", Firmware: "1.0",
		NN: 1, MaxXfer: 5, SQES: 6, CQES: 4,
	}
}
