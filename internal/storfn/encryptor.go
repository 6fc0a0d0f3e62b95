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

	stepDecrypt, stepEncrypt uif.Step // decrypt and encrypt, bound once

	// Stats
	Reads, Writes uint64
}

// NewEncryptor creates the UIF with a 256- or 512-bit XTS key.
func NewEncryptor(key []byte, costs EncryptorCosts) (*Encryptor, error) {
	c, err := xts.New(key)
	if err != nil {
		return nil, err
	}
	e := &Encryptor{cipher: c, costs: costs}
	e.stepDecrypt, e.stepEncrypt = e.decrypt, e.encrypt
	return e, nil
}

func (e *Encryptor) cryptCost(n int) sim.Duration {
	return sim.Duration(float64(n) / e.costs.CryptRate * 1e9)
}

func (e *Encryptor) copyCost(n int) sim.Duration {
	return sim.Duration(float64(n) / e.costs.CopyRate * 1e9)
}

// Work implements uif.Handler.
func (e *Encryptor) Work(th *sim.Thread, req *uif.Request) {
	n := int(req.NBytes())
	switch req.Cmd.Opcode() {
	case nvme.OpRead:
		// do_read: iterate the data blocks and decrypt in place.
		req.Buf = req.Buffer(n)
		if err := req.ReadData(req.Buf); err != nil {
			req.Done(nvme.SCDataXferError)
			return
		}
		th.ExecFunc(e.cryptCost(n)+e.copyCost(2*n), req.Then(e.stepDecrypt))
	case nvme.OpWrite:
		// do_write_async: encrypt the copy pulled from the guest in place,
		// then write the ciphertext to disk with io_uring; respond when the
		// write lands.
		req.Buf = req.Buffer(n)
		if err := req.ReadData(req.Buf); err != nil {
			req.Done(nvme.SCDataXferError)
			return
		}
		th.ExecFunc(e.cryptCost(n)+e.copyCost(n), req.Then(e.stepEncrypt))
	default:
		// The classifier only routes reads and writes here.
		req.Done(nvme.SCInvalidOpcode)
	}
}

func (e *Encryptor) decrypt(_ *sim.Thread, req *uif.Request) {
	if err := e.cipher.DecryptBlocks(req.Buf, req.Buf, req.Sector(), 512); err != nil {
		req.Done(nvme.SCInternal)
		return
	}
	if err := req.WriteData(req.Buf); err != nil {
		req.Done(nvme.SCDataXferError)
		return
	}
	e.Reads++
	req.Done(nvme.SCSuccess)
}

func (e *Encryptor) encrypt(th *sim.Thread, req *uif.Request) {
	if err := e.cipher.EncryptBlocks(req.Buf, req.Buf, req.Sector(), 512); err != nil {
		req.Done(nvme.SCInternal)
		return
	}
	e.Writes++
	req.SubmitBackendWriteThen(th, req.Buf, nil)
}

// SGXEncryptor is the enclave variant: identical request flow, but all
// cipher operations run inside a simulated SGX enclave via switchless
// calls, so the key never exists in UIF memory. It shares the plain
// encryptor's structure — the paper notes ~80% shared code and ~120 lines
// of SGX-specific logic.
type SGXEncryptor struct {
	enclave *sgx.Enclave
	costs   EncryptorCosts

	stepDecrypt, stepEncrypt, stepWrite uif.Step // bound once
}

// NewSGXEncryptor wraps a launched enclave.
func NewSGXEncryptor(enclave *sgx.Enclave, costs EncryptorCosts) *SGXEncryptor {
	e := &SGXEncryptor{enclave: enclave, costs: costs}
	e.stepDecrypt, e.stepEncrypt, e.stepWrite = e.decrypt, e.encrypt, e.write
	return e
}

func (e *SGXEncryptor) copyCost(n int) sim.Duration {
	return sim.Duration(float64(n) / e.costs.CopyRate * 1e9)
}

// Work implements uif.Handler.
func (e *SGXEncryptor) Work(th *sim.Thread, req *uif.Request) {
	n := int(req.NBytes())
	switch req.Cmd.Opcode() {
	case nvme.OpRead:
		req.Buf = req.Buffer(n)
		if err := req.ReadData(req.Buf); err != nil {
			req.Done(nvme.SCDataXferError)
			return
		}
		th.ExecFunc(e.copyCost(2*n), req.Then(e.stepDecrypt))
	case nvme.OpWrite:
		req.Buf = req.Buffer(n)
		if err := req.ReadData(req.Buf); err != nil {
			req.Done(nvme.SCDataXferError)
			return
		}
		th.ExecFunc(e.copyCost(n), req.Then(e.stepEncrypt))
	default:
		req.Done(nvme.SCInvalidOpcode)
	}
}

// pend hands a request back with its completion left to the enclave job.
func pend(_ *sim.Thread, req *uif.Request) { req.Pend() }

func (e *SGXEncryptor) decrypt(th *sim.Thread, req *uif.Request) {
	buf := req.Buf
	e.enclave.SubmitSwitchless(th, &sgx.Job{
		Op: sgx.OpDecrypt, Dst: buf, Src: buf, Sector: req.Sector(), SectorSize: 512,
		Done: func(err error) {
			st := nvme.SCSuccess
			if err != nil {
				st = nvme.SCInternal
			} else if werr := req.WriteData(buf); werr != nil {
				st = nvme.SCDataXferError
			}
			req.CompleteAsync(st)
		},
	}, req.Then(pend))
}

func (e *SGXEncryptor) encrypt(th *sim.Thread, req *uif.Request) {
	buf := req.Buf
	e.enclave.SubmitSwitchless(th, &sgx.Job{
		Op: sgx.OpEncrypt, Dst: buf, Src: buf, Sector: req.Sector(), SectorSize: 512,
		Done: func(err error) {
			if err != nil {
				req.CompleteAsync(nvme.SCInternal)
				return
			}
			// Hop back onto a UIF polling thread for the io_uring write.
			req.Defer(e.stepWrite)
		},
	}, req.Then(pend))
}

func (e *SGXEncryptor) write(th *sim.Thread, req *uif.Request) {
	req.SubmitBackendWriteThen(th, req.Buf, nil)
}
