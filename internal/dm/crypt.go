package dm

import (
	"nvmetro/internal/blockdev"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
	"nvmetro/internal/xts"
)

// CryptParams configures dm-crypt.
type CryptParams struct {
	// Workers is the kcryptd pool size (Linux uses per-CPU workqueues).
	Workers int
	// CryptRate is the modeled AES-NI throughput per worker in bytes/sec.
	CryptRate float64
	// QueueCost is the workqueue dispatch overhead per bio.
	QueueCost sim.Duration
}

// DefaultCryptParams returns the calibrated dm-crypt model (AES-NI XTS at
// roughly 2.4 GB/s per core, plus workqueue handoff).
func DefaultCryptParams() CryptParams {
	return CryptParams{Workers: 2, CryptRate: 2.4e9, QueueCost: 1500 * sim.Nanosecond}
}

// Crypt is the dm-crypt target: transparent XTS-AES encryption above a
// lower device, with encryption and decryption performed by a kcryptd-style
// worker pool. Tweaks are plain64 sector numbers relative to the target, so
// output is compatible with the NVMetro encryption UIF given the same key.
type Crypt struct {
	lower  blockdev.BlockDevice
	cipher *xts.Cipher
	params CryptParams
	queue  []cryptWork
	wake   *sim.Cond

	// Stats
	Encrypted, Decrypted uint64 // bytes
}

type cryptWork struct {
	bio     *bio
	decrypt bool
}

// NewCrypt creates the target; worker threads are created on cpu with the
// "kcryptd" tag.
func NewCrypt(env *sim.Env, lower blockdev.BlockDevice, key []byte, params CryptParams, cpu *sim.CPU) (*Crypt, error) {
	cipher, err := xts.New(key)
	if err != nil {
		return nil, err
	}
	c := &Crypt{lower: lower, cipher: cipher, params: params, wake: sim.NewCond(env)}
	for i := 0; i < params.Workers; i++ {
		k := &kcryptd{c: c, th: cpu.NewThread("kcryptd")}
		k.stepNext, k.stepCrypt = k.next, k.crypt
		env.After(0, k.stepNext)
	}
	return c, nil
}

// SubmitBio implements BlockDevice.
func (c *Crypt) SubmitBio(p *sim.Proc, th *sim.Thread, b *bio) {
	blockdev.SubmitAndWait(p, c, th, b)
}

// SubmitFunc implements blockdev.BlockDevice.
func (c *Crypt) SubmitFunc(th *sim.Thread, b *bio, then func()) {
	switch b.Op {
	case blockdev.BioWrite:
		// Writes are encrypted by kcryptd before hitting the lower device.
		th.ExecFunc(c.params.QueueCost, func() {
			c.queue = append(c.queue, cryptWork{bio: b})
			c.wake.Signal(nil)
			then()
		})
	case blockdev.BioRead:
		// Reads complete on the lower device first, then kcryptd decrypts.
		orig := b.OnDone
		nb := *b
		nb.OnDone = func(st nvme.Status) {
			if !st.OK() {
				orig(st)
				return
			}
			done := *b
			done.OnDone = orig
			c.queue = append(c.queue, cryptWork{bio: &done, decrypt: true})
			c.wake.Signal(nil)
		}
		c.lower.SubmitFunc(th, &nb, then)
	default:
		c.lower.SubmitFunc(th, b, then)
	}
}

// kcryptd is one worker of the pool. Its loop runs as continuations: take
// the next queued bio, charge its crypto, then do it.
type kcryptd struct {
	c  *Crypt
	th *sim.Thread
	w  cryptWork // the bio between its charge and its crypto

	stepNext, stepCrypt func() // next and crypt, bound once
}

// next charges the crypto of the next queued bio, or waits for one.
func (k *kcryptd) next() {
	c := k.c
	if len(c.queue) == 0 {
		c.wake.WaitFunc(k.stepNext)
		return
	}
	k.w = c.queue[0]
	c.queue = c.queue[1:]
	k.th.ExecFunc(sim.Duration(float64(len(k.w.bio.Data))/c.params.CryptRate*1e9), k.stepCrypt)
}

// crypt decrypts a read in place and completes it, or encrypts a write into
// a bounce buffer — the caller's plaintext must not be clobbered (dm-crypt
// does the same) — and submits that to the lower device.
func (k *kcryptd) crypt() {
	c, w := k.c, k.w
	k.w = cryptWork{}
	if w.decrypt {
		st := nvme.SCInternal
		if err := c.cipher.DecryptBlocks(w.bio.Data, w.bio.Data, w.bio.Sector, blockdev.SectorSize); err == nil {
			st = nvme.SCSuccess
			c.Decrypted += uint64(len(w.bio.Data))
		}
		w.bio.OnDone(st)
		k.next()
		return
	}
	ct := make([]byte, len(w.bio.Data))
	if err := c.cipher.EncryptBlocks(ct, w.bio.Data, w.bio.Sector, blockdev.SectorSize); err != nil {
		w.bio.OnDone(nvme.SCInternal)
		k.next()
		return
	}
	c.Encrypted += uint64(len(ct))
	c.lower.SubmitFunc(k.th, &bio{Op: blockdev.BioWrite, Sector: w.bio.Sector, Data: ct, OnDone: w.bio.OnDone}, k.stepNext)
}
