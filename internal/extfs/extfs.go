// Package extfs is a minimal extent-based filesystem running *inside the
// guest* over a vm.Disk — the ext4 stand-in under the key-value store for
// the YCSB evaluations. Files are preallocated extents (a good match for an
// LSM store's append-only WAL and immutable SSTables); a block cache plays
// the role of the guest page cache, and write-back files model journal-less
// ext4 behaviour, which is exactly how the paper configures its filesystem
// ("we disable the journal, discards and access time features").
package extfs

import (
	"encoding/binary"
	"errors"
	"fmt"

	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// cacheBlockSize is the page-cache granule.
const cacheBlockSize = 4096

// Errors.
var (
	errExists   = errors.New("extfs: file exists")
	errNotFound = errors.New("extfs: file not found")
	errNoSpace  = errors.New("extfs: no space")
	errIO       = errors.New("extfs: I/O error")
)

// The guest filesystem model's costs.
const (
	pageCacheBytes = 64 << 20             // page cache capacity
	copyRate       = 8e9                  // guest memcpy bytes/sec for cache hits and staging
	opCost         = 500 * sim.Nanosecond // per-call bookkeeping on the vCPU
)

// FS is a mounted filesystem instance.
type FS struct {
	v    *vm.VM
	disk vm.Disk
	vcpu *sim.Thread
	// cacheCap is the page cache capacity: pageCacheBytes, smaller only in
	// the eviction tests.
	cacheCap int64

	blockSize  uint32
	base       uint64 // first disk block of this instance's window
	diskBlocks uint64 // window end (exclusive), in disk blocks
	nextBlock  uint64 // bump allocator (disk blocks)
	files      map[string]*File

	cache     map[uint64][]byte // cache-block index -> data
	dirty     map[uint64]bool
	cacheLRU  []uint64
	xferBase  uint64   // guest-physical staging buffer
	xferPages []uint64 // its pages
	xferSize  uint32

	// Stats
	CacheHits     uint64
	Reads, Writes uint64
}

// MountAt formats a fresh filesystem over a block window of the disk (the
// simulation always starts cold, like a freshly mkfs'ed device in the
// paper's runs), so several independent instances (one per benchmark job)
// can share one device.
func MountAt(p *sim.Proc, v *vm.VM, disk vm.Disk, vcpu *sim.Thread, startBlock, blocks uint64) (*FS, error) {
	fs := &FS{
		v: v, disk: disk, vcpu: vcpu, cacheCap: pageCacheBytes,
		blockSize:  disk.BlockSize(),
		base:       startBlock,
		diskBlocks: startBlock + blocks,
		nextBlock:  startBlock + 8, // reserve a superblock area
		files:      make(map[string]*File),
		cache:      make(map[uint64][]byte),
		dirty:      make(map[uint64]bool),
		xferSize:   256 << 10,
	}
	base, pages, err := v.Mem.AllocBuffer(fs.xferSize)
	if err != nil {
		return nil, err
	}
	fs.xferBase = base
	fs.xferPages = pages
	if err := fs.writeSuper(p); err != nil {
		return nil, err
	}
	return fs, nil
}

// writeSuper persists a tiny superblock (magic + file count) — enough to
// exercise metadata writes without a full on-disk directory format.
func (fs *FS) writeSuper(p *sim.Proc) error {
	buf := make([]byte, fs.blockSize)
	binary.LittleEndian.PutUint64(buf[0:8], 0x4e564d4654524f46) // "NVMFTROF"
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(fs.files)))
	return fs.rawWrite(p, fs.base, buf)
}

// File is an open file backed by one extent.
type File struct {
	fs        *FS
	name      string
	start     uint64 // first disk block
	maxBytes  uint64
	size      uint64
	writeBack bool
}

// Create allocates a file with a fixed maximum size. writeBack files buffer
// writes in the cache (journal-less ext4 data path); write-through files
// hit the disk synchronously.
func (fs *FS) Create(p *sim.Proc, name string, maxBytes uint64, writeBack bool) (*File, error) {
	fs.vcpu.Exec(p, opCost)
	if _, ok := fs.files[name]; ok {
		return nil, errExists
	}
	blocks := (maxBytes + uint64(fs.blockSize) - 1) / uint64(fs.blockSize)
	if fs.nextBlock+blocks > fs.diskBlocks {
		return nil, errNoSpace
	}
	f := &File{fs: fs, name: name, start: fs.nextBlock, maxBytes: blocks * uint64(fs.blockSize), writeBack: writeBack}
	fs.nextBlock += blocks
	fs.files[name] = f
	if err := fs.writeSuper(p); err != nil {
		return nil, err
	}
	return f, nil
}

// Delete removes a file. Extents are not reclaimed (bump allocation), but a
// discard is issued so the device can trim — matching the paper disabling
// online discards but allowing explicit ones.
func (fs *FS) Delete(p *sim.Proc, name string) error {
	f, ok := fs.files[name]
	if !ok {
		return errNotFound
	}
	delete(fs.files, name)
	// Drop cached blocks.
	first := f.start * uint64(fs.blockSize) / cacheBlockSize
	last := (f.start*uint64(fs.blockSize) + f.maxBytes) / cacheBlockSize
	for cb := first; cb <= last; cb++ {
		delete(fs.cache, cb)
		delete(fs.dirty, cb)
	}
	return fs.writeSuper(p)
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// copyCost charges guest CPU for staging n bytes.
func (fs *FS) copyCost(p *sim.Proc, n int) {
	fs.vcpu.Exec(p, sim.Duration(float64(n)/copyRate*1e9))
}

// rawWrite writes whole blocks at a disk block address (no cache).
func (fs *FS) rawWrite(p *sim.Proc, blk uint64, data []byte) error {
	for off := 0; off < len(data); off += int(fs.xferSize) {
		end := off + int(fs.xferSize)
		if end > len(data) {
			end = len(data)
		}
		chunk := data[off:end]
		fs.v.Mem.WriteAt(chunk, fs.xferBase)
		fs.copyCost(p, len(chunk))
		r := &vm.Req{
			Op: vm.OpWrite, LBA: blk + uint64(off)/uint64(fs.blockSize),
			Blocks: uint32(len(chunk)) / fs.blockSize, Buf: fs.xferBase, BufPages: fs.xferPages,
		}
		if st := vm.SubmitAndWait(p, fs.disk, fs.vcpu, r); !st.OK() {
			return fmt.Errorf("%w: %v", errIO, st)
		}
		fs.Writes++
	}
	return nil
}

// rawRead reads whole blocks at a disk block address (no cache).
func (fs *FS) rawRead(p *sim.Proc, blk uint64, data []byte) error {
	for off := 0; off < len(data); off += int(fs.xferSize) {
		end := off + int(fs.xferSize)
		if end > len(data) {
			end = len(data)
		}
		chunk := data[off:end]
		r := &vm.Req{
			Op: vm.OpRead, LBA: blk + uint64(off)/uint64(fs.blockSize),
			Blocks: uint32(len(chunk)) / fs.blockSize, Buf: fs.xferBase, BufPages: fs.xferPages,
		}
		if st := vm.SubmitAndWait(p, fs.disk, fs.vcpu, r); !st.OK() {
			return fmt.Errorf("%w: %v", errIO, st)
		}
		fs.v.Mem.ReadAt(chunk, fs.xferBase)
		fs.copyCost(p, len(chunk))
		fs.Reads++
	}
	return nil
}

// cacheBlock loads (or creates) the cache block covering disk byte dboff.
func (fs *FS) cacheBlock(p *sim.Proc, cb uint64, load bool) ([]byte, error) {
	if b, ok := fs.cache[cb]; ok {
		fs.CacheHits++
		return b, nil
	}
	b := make([]byte, cacheBlockSize)
	if load {
		if err := fs.rawRead(p, cb*cacheBlockSize/uint64(fs.blockSize), b); err != nil {
			return nil, err
		}
	}
	fs.insertCache(p, cb, b)
	return b, nil
}

func (fs *FS) insertCache(p *sim.Proc, cb uint64, b []byte) {
	fs.cache[cb] = b
	fs.cacheLRU = append(fs.cacheLRU, cb)
	for int64(len(fs.cache))*cacheBlockSize > fs.cacheCap && len(fs.cacheLRU) > 0 {
		victim := fs.cacheLRU[0]
		fs.cacheLRU = fs.cacheLRU[1:]
		if _, ok := fs.cache[victim]; !ok {
			continue
		}
		if fs.dirty[victim] {
			// Write back before eviction.
			fs.rawWrite(p, victim*cacheBlockSize/uint64(fs.blockSize), fs.cache[victim])
			delete(fs.dirty, victim)
		}
		delete(fs.cache, victim)
	}
}

// WriteAt writes data at the byte offset. Write-back files dirty the cache;
// write-through files also flush immediately.
func (f *File) WriteAt(p *sim.Proc, off uint64, data []byte) error {
	fs := f.fs
	fs.vcpu.Exec(p, opCost)
	if off+uint64(len(data)) > f.maxBytes {
		return errNoSpace
	}
	diskOff := f.start*uint64(fs.blockSize) + off
	// Stage through the cache at cache-block granularity.
	rem := data
	pos := diskOff
	for len(rem) > 0 {
		cb := pos / cacheBlockSize
		cbOff := int(pos % cacheBlockSize)
		n := cacheBlockSize - cbOff
		if n > len(rem) {
			n = len(rem)
		}
		// Partial overwrite of an unseen block must read it first.
		load := cbOff != 0 || n != cacheBlockSize
		b, err := fs.cacheBlock(p, cb, load)
		if err != nil {
			return err
		}
		copy(b[cbOff:cbOff+n], rem[:n])
		fs.dirty[cb] = true
		rem = rem[n:]
		pos += uint64(n)
	}
	fs.copyCost(p, len(data))
	if off+uint64(len(data)) > f.size {
		f.size = off + uint64(len(data))
	}
	if !f.writeBack {
		return f.syncRange(p, diskOff, uint64(len(data)))
	}
	return nil
}

// ReadAt fills buf from the byte offset, through the cache.
func (f *File) ReadAt(p *sim.Proc, off uint64, buf []byte) error {
	fs := f.fs
	fs.vcpu.Exec(p, opCost)
	if off+uint64(len(buf)) > f.maxBytes {
		return fmt.Errorf("%w: read beyond extent", errIO)
	}
	pos := f.start*uint64(fs.blockSize) + off
	rem := buf
	for len(rem) > 0 {
		cb := pos / cacheBlockSize
		cbOff := int(pos % cacheBlockSize)
		n := cacheBlockSize - cbOff
		if n > len(rem) {
			n = len(rem)
		}
		b, err := fs.cacheBlock(p, cb, true)
		if err != nil {
			return err
		}
		copy(rem[:n], b[cbOff:cbOff+n])
		rem = rem[n:]
		pos += uint64(n)
	}
	fs.copyCost(p, len(buf))
	return nil
}

// syncRange flushes dirty cache blocks covering [diskOff, diskOff+n).
func (f *File) syncRange(p *sim.Proc, diskOff, n uint64) error {
	fs := f.fs
	first := diskOff / cacheBlockSize
	last := (diskOff + n - 1) / cacheBlockSize
	for cb := first; cb <= last; cb++ {
		if !fs.dirty[cb] {
			continue
		}
		if err := fs.rawWrite(p, cb*cacheBlockSize/uint64(fs.blockSize), fs.cache[cb]); err != nil {
			return err
		}
		delete(fs.dirty, cb)
	}
	return nil
}

// Sync flushes all of the file's dirty blocks (fsync).
func (f *File) Sync(p *sim.Proc) error {
	if f.size == 0 {
		return nil
	}
	return f.syncRange(p, f.fs.blockSize2()*f.start, f.size)
}

func (fs *FS) blockSize2() uint64 { return uint64(fs.blockSize) }
