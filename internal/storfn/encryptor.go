package storfn

import (
	"nvmetro/internal/nvme"
	"nvmetro/internal/sgx"
	"nvmetro/internal/sim"
	"nvmetro/internal/uif"
	"nvmetro/internal/xts"
)

// EncryptorCosts models the UIF-side data-path costs.
type EncryptorCosts struct {
	CryptRate float64 // bytes/sec of XTS-AES per thread (AES-NI class)
	CopyRate  float64 // bytes/sec of guest-memory copies
}

// DefaultEncryptorCosts returns the calibrated encryptor model.
func DefaultEncryptorCosts() EncryptorCosts {
	return EncryptorCosts{CryptRate: 2.4e9, CopyRate: 10e9}
}

// Encryptor is the transparent-encryption UIF (paper Listing 2): reads are
// decrypted in place after the device fills the guest buffer with
// ciphertext; writes are encrypted in a request buffer and persisted by the
// UIF itself through io_uring. The XTS format matches dm-crypt with
// plain64 sector tweaks.
type Encryptor struct {
	cipher *xts.Cipher
	costs  EncryptorCosts

	// Stats
	Reads, Writes uint64
}

// NewEncryptor creates the UIF with a 256- or 512-bit XTS key.
func NewEncryptor(key []byte, costs EncryptorCosts) (*Encryptor, error) {
	c, err := xts.New(key)
	if err != nil {
		return nil, err
	}
	return &Encryptor{cipher: c, costs: costs}, nil
}

func (e *Encryptor) cryptCost(n int) sim.Duration {
	return sim.Duration(float64(n) / e.costs.CryptRate * 1e9)
}

func (e *Encryptor) copyCost(n int) sim.Duration {
	return sim.Duration(float64(n) / e.costs.CopyRate * 1e9)
}

// Work implements uif.Handler.
func (e *Encryptor) Work(p *sim.Proc, th *sim.Thread, req *uif.Request) (bool, nvme.Status) {
	switch req.Cmd.Opcode() {
	case nvme.OpRead:
		// do_read: iterate the data blocks and decrypt in place.
		n := int(req.NBytes())
		buf := req.Buffer(n)
		if err := req.ReadData(buf); err != nil {
			return false, nvme.SCDataXferError
		}
		th.Exec(p, e.cryptCost(n)+e.copyCost(2*n))
		if err := e.cipher.DecryptBlocks(buf, buf, req.Sector(), 512); err != nil {
			return false, nvme.SCInternal
		}
		if err := req.WriteData(buf); err != nil {
			return false, nvme.SCDataXferError
		}
		e.Reads++
		return false, nvme.SCSuccess
	case nvme.OpWrite:
		// do_write_async: encrypt the copy pulled from the guest in place,
		// then write the ciphertext to disk with io_uring; respond when the
		// write lands.
		n := int(req.NBytes())
		buf := req.Buffer(n)
		if err := req.ReadData(buf); err != nil {
			return false, nvme.SCDataXferError
		}
		th.Exec(p, e.cryptCost(n)+e.copyCost(n))
		if err := e.cipher.EncryptBlocks(buf, buf, req.Sector(), 512); err != nil {
			return false, nvme.SCInternal
		}
		e.Writes++
		req.SubmitBackendWrite(p, th, buf)
		return true, 0
	default:
		// The classifier only routes reads and writes here.
		return false, nvme.SCInvalidOpcode
	}
}

// SGXEncryptor is the enclave variant: identical request flow, but all
// cipher operations run inside a simulated SGX enclave via switchless
// calls, so the key never exists in UIF memory. It shares the plain
// encryptor's structure — the paper notes ~80% shared code and ~120 lines
// of SGX-specific logic.
type SGXEncryptor struct {
	enclave *sgx.Enclave
	costs   EncryptorCosts

	Reads, Writes uint64
}

// NewSGXEncryptor wraps a launched enclave.
func NewSGXEncryptor(enclave *sgx.Enclave, costs EncryptorCosts) *SGXEncryptor {
	return &SGXEncryptor{enclave: enclave, costs: costs}
}

func (e *SGXEncryptor) copyCost(n int) sim.Duration {
	return sim.Duration(float64(n) / e.costs.CopyRate * 1e9)
}

// Work implements uif.Handler.
func (e *SGXEncryptor) Work(p *sim.Proc, th *sim.Thread, req *uif.Request) (bool, nvme.Status) {
	switch req.Cmd.Opcode() {
	case nvme.OpRead:
		n := int(req.NBytes())
		buf := req.Buffer(n)
		if err := req.ReadData(buf); err != nil {
			return false, nvme.SCDataXferError
		}
		th.Exec(p, e.copyCost(2*n))
		e.enclave.SubmitSwitchless(p, th, &sgx.Job{
			Op: sgx.OpDecrypt, Dst: buf, Src: buf, Sector: req.Sector(), SectorSize: 512,
			Done: func(err error) {
				st := nvme.SCSuccess
				if err != nil {
					st = nvme.SCInternal
				} else if werr := req.WriteData(buf); werr != nil {
					st = nvme.SCDataXferError
				}
				e.Reads++
				req.CompleteAsync(st)
			},
		})
		return true, 0
	case nvme.OpWrite:
		n := int(req.NBytes())
		buf := req.Buffer(n)
		if err := req.ReadData(buf); err != nil {
			return false, nvme.SCDataXferError
		}
		th.Exec(p, e.copyCost(n))
		e.enclave.SubmitSwitchless(p, th, &sgx.Job{
			Op: sgx.OpEncrypt, Dst: buf, Src: buf, Sector: req.Sector(), SectorSize: 512,
			Done: func(err error) {
				if err != nil {
					req.CompleteAsync(nvme.SCInternal)
					return
				}
				e.Writes++
				// Hop back onto a UIF polling thread for the io_uring write.
				req.Attachment().Defer(func(p *sim.Proc, th *sim.Thread) {
					req.SubmitBackendWrite(p, th, buf)
				})
			},
		})
		return true, 0
	default:
		return false, nvme.SCInvalidOpcode
	}
}
