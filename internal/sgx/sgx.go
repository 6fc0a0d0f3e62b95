// Package sgx simulates the Intel SGX enclave runtime used by the paper's
// SGX encryption UIF: a sealed key that never leaves the enclave, and the
// "switchless" call path, where a dedicated enclave worker thread polls a
// shared request queue so operations avoid the enclave transition cost
// entirely — at the price of one busy thread.
package sgx

import (
	"nvmetro/internal/sim"
	"nvmetro/internal/xts"
)

// The SGX model's costs: enclave crypto at ~85% of native AES-NI
// throughput and sub-microsecond switchless posts.
const (
	switchlessSub = 400 * sim.Nanosecond  // host-side cost to post a switchless call
	cryptRate     = 2.0e9                 // bytes/sec of XTS inside the enclave
	spinQuantum   = 500 * sim.Nanosecond  // switchless worker poll interval
	idlePark      = 100 * sim.Microsecond // spin this long on empty queue before sleeping
)

// Op selects the enclave crypto operation.
type Op uint8

// Operations.
const (
	OpEncrypt Op = iota
	OpDecrypt
)

// Job is one switchless crypto request: process Data (sector-sized blocks
// starting at Sector) and call Done.
type Job struct {
	Op         Op
	Dst, Src   []byte
	Sector     uint64
	SectorSize int
	Done       func(error)
}

// Enclave holds the sealed cipher key and runs the switchless worker.
type Enclave struct {
	cipher *xts.Cipher // key material lives only here
	queue  []*Job
	wake   *sim.Cond
	th     *sim.Thread

	// Stats
	Switchless uint64
	SpinTime   sim.Duration
}

// Launch creates the enclave with its switchless worker thread on cpu.
// The key is provisioned at launch (standing in for sealed-key unwrap).
func Launch(env *sim.Env, cpu *sim.CPU, key []byte) (*Enclave, error) {
	cipher, err := xts.New(key)
	if err != nil {
		return nil, err
	}
	e := &Enclave{cipher: cipher, wake: sim.NewCond(env), th: cpu.NewThread("sgx-switchless")}
	env.Go("sgx-switchless", e.worker)
	return e, nil
}

// SubmitSwitchless posts a job to the enclave worker; Done runs in enclave
// worker context when finished. The host thread pays only the tiny post
// cost.
func (e *Enclave) SubmitSwitchless(p *sim.Proc, caller *sim.Thread, job *Job) {
	caller.Exec(p, switchlessSub)
	e.Switchless++
	e.queue = append(e.queue, job)
	e.wake.Signal(nil)
}

func (e *Enclave) cryptCost(n int) sim.Duration {
	return sim.Duration(float64(n) / cryptRate * 1e9)
}

func (e *Enclave) crypt(job *Job) error {
	var err error
	if job.Op == OpEncrypt {
		err = e.cipher.EncryptBlocks(job.Dst, job.Src, job.Sector, job.SectorSize)
	} else {
		err = e.cipher.DecryptBlocks(job.Dst, job.Src, job.Sector, job.SectorSize)
	}
	return err
}

// worker is the switchless thread: it spins on the call queue (burning CPU,
// visible in the evaluation's CPU figures) and parks after a long idle.
func (e *Enclave) worker(p *sim.Proc) {
	var idle sim.Duration
	for {
		if len(e.queue) == 0 {
			if idle >= idlePark {
				e.wake.Wait()
				idle = 0
				continue
			}
			e.th.Exec(p, spinQuantum)
			e.SpinTime += spinQuantum
			idle += spinQuantum
			continue
		}
		idle = 0
		job := e.queue[0]
		e.queue = e.queue[1:]
		e.th.Exec(p, e.cryptCost(len(job.Src)))
		err := e.crypt(job)
		job.Done(err)
	}
}
