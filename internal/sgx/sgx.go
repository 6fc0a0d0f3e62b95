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
	idle   sim.Duration // spun since the last job
	job    *Job         // the job being run

	stepWoken, stepSpun, stepCrypted func() // woken, spun and crypted, bound once

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
	e.stepWoken, e.stepSpun, e.stepCrypted = e.woken, e.spun, e.crypted
	env.After(0, e.run)
	return e, nil
}

// SubmitSwitchless posts a job to the enclave worker; Done runs in enclave
// worker context when finished. The host thread pays only the tiny post
// cost, after which then runs, in scheduler context.
func (e *Enclave) SubmitSwitchless(caller *sim.Thread, job *Job, then func()) {
	caller.ExecFunc(switchlessSub, func() {
		e.Switchless++
		e.queue = append(e.queue, job)
		e.wake.Signal(nil)
		then()
	})
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

// run is the switchless thread, a continuation on its own thread: it spins
// on the call queue (burning CPU, visible in the evaluation's CPU figures),
// parks after a long idle, and runs each job's crypto on the thread.
func (e *Enclave) run() {
	if len(e.queue) == 0 {
		if e.idle >= idlePark {
			e.wake.WaitFunc(e.stepWoken)
			return
		}
		e.th.ExecFunc(spinQuantum, e.stepSpun)
		return
	}
	e.idle = 0
	e.job = e.queue[0]
	e.queue = e.queue[1:]
	e.th.ExecFunc(e.cryptCost(len(e.job.Src)), e.stepCrypted)
}

func (e *Enclave) woken() {
	e.idle = 0
	e.run()
}

func (e *Enclave) spun() {
	e.SpinTime += spinQuantum
	e.idle += spinQuantum
	e.run()
}

func (e *Enclave) crypted() {
	job := e.job
	e.job = nil
	job.Done(e.crypt(job))
	e.run()
}
