package stack

import (
	"nvmetro/internal/cow"
	"nvmetro/internal/device"
	"nvmetro/internal/metrics"
	"nvmetro/internal/vm"
)

// GoldenImage is a sealed master image plus the content-addressed chunk
// index shared by every clone derived from it. The master store is written
// once (provisioning the image), sealed, and then cloned onto fresh device
// namespaces — one per tenant — in O(layers) per clone.
type GoldenImage struct {
	idx    *cow.Index
	master *cow.Store
}

// NewGoldenImage creates an empty golden image of the given size on the
// host's device block size. cacheChunks > 0 fronts the shared chunk index
// with a content-addressed cache of that many chunks — the piece that lets
// one tenant's read warm the cache for every other tenant of the image.
func NewGoldenImage(h *Host, blocks uint64, cacheChunks uint64) *GoldenImage {
	idx := cow.NewIndex(cow.Config{
		BlockSize:   h.Dev.Params().BlockSize(),
		CacheChunks: cacheChunks,
	})
	return &GoldenImage{
		idx:    idx,
		master: cow.NewStore(idx, blocks, nil),
	}
}

// Master returns the writable master store — load the image through it,
// then Seal.
func (g *GoldenImage) Master() *cow.Store { return g.master }

// Index returns the shared chunk index.
func (g *GoldenImage) Index() *cow.Index { return g.idx }

// Seal freezes the master's dirty state into an immutable layer (no-op
// when clean). Clone seals implicitly; an explicit Seal pins the boundary
// where the golden content ends.
func (g *GoldenImage) Seal() *cow.Layer { return g.master.Snapshot() }

// BaseCRC returns the metadata CRC of the bottom layer (0 before any
// seal). It must never move once clones exist: tenant writes CoW-break
// into private chunks, they do not touch sealed layers.
func (g *GoldenImage) BaseCRC() uint32 {
	ls := g.master.Layers()
	if len(ls) == 0 {
		return 0
	}
	return ls[0].CRC()
}

// ContentCRC fingerprints the master's full logical content.
func (g *GoldenImage) ContentCRC() uint32 { return g.master.ContentCRC() }

// cloneNamespace clones the image onto a fresh namespace of dev and returns
// the partition covering it with the clone's CoW store. The clone itself
// copies no data; the namespace is ready as soon as the metadata references
// are taken.
func (g *GoldenImage) cloneNamespace(dev *device.Device) (device.Partition, *cow.Store) {
	c := g.master.Clone()
	nsid := dev.NextNSID()
	dev.AddNamespace(nsid, c.Blocks(), c)
	return device.WholeNamespace(dev, nsid), c
}

// Collect exports the shared index (and cache) counters.
func (g *GoldenImage) Collect(cs *metrics.CounterSet) { g.idx.Collect(cs) }

// WithSnapshots arms the solution with a golden image: VMs provisioned
// via CloneFrom get a freshly cloned namespace instead of a partition of
// the device's flat namespace 1.
func (s *NVMetro) WithSnapshots(g *GoldenImage) *NVMetro {
	s.spec.CloneOf = g
	return s
}

// CloneFrom attaches the declared Spec for v over a fresh clone of the
// golden image, composing with whatever else the solution declares (cache,
// QoS, integrity).
func (s *NVMetro) CloneFrom(v *vm.VM) vm.Disk {
	if s.spec.CloneOf == nil {
		panic("stack: CloneFrom without WithSnapshots")
	}
	return s.Attach(v, device.Partition{}, s.spec).Disk
}

// CloneStoreFor returns the CoW store backing v's cloned namespace (nil
// when v was not attached as a clone).
func (s *NVMetro) CloneStoreFor(v *vm.VM) *cow.Store { return s.vol(v).Store }
