// Package ycsb reproduces the YCSB benchmark suite's six core workloads
// (Cooper et al., SoCC'10) against the LSM store: zipfian and latest
// request distributions, read/update/insert/scan/read-modify-write mixes,
// and a load phase, with per-operation throughput accounting over a
// measurement window.
package ycsb

import (
	"fmt"
	"math"
	"math/rand"

	"nvmetro/internal/lsm"
	"nvmetro/internal/metrics"
	"nvmetro/internal/sim"
)

// Workload identifies one of the six core workloads.
type Workload byte

// The YCSB core workloads.
const (
	WorkloadA Workload = 'A' // 50% read / 50% update, zipfian
	workloadB Workload = 'B' // 95% read / 5% update, zipfian
	WorkloadC Workload = 'C' // 100% read, zipfian
	workloadD Workload = 'D' // 95% read latest / 5% insert
	workloadE Workload = 'E' // 95% scan / 5% insert
	WorkloadF Workload = 'F' // 50% read / 50% read-modify-write, zipfian
)

func (w Workload) String() string { return string(w) }

// All lists the workloads in evaluation order.
func All() []Workload {
	return []Workload{WorkloadA, workloadB, WorkloadC, workloadD, workloadE, WorkloadF}
}

// Config scales the benchmark.
type Config struct {
	Records  int // loaded dataset size per DB instance
	Warmup   sim.Duration
	Duration sim.Duration
}

// The record shape: value bytes per record, and the longest scan.
const (
	fieldLength = 1000
	maxScanLen  = 50
)

// DefaultConfig returns the scaled-down dataset used by the harness
// (the paper uses 3M records and 1M operations on real hardware; the
// simulated runs keep the same access distributions at reduced scale).
func DefaultConfig() Config {
	return Config{
		Records:  8000,
		Warmup:   5 * sim.Millisecond,
		Duration: 60 * sim.Millisecond,
	}
}

// key formats record i as a YCSB-style key.
func key(i int) string { return fmt.Sprintf("user%012d", i) }

// zipf is the standard YCSB scrambled-zipfian generator over [0, n).
type zipf struct {
	n     int
	theta float64
	alpha float64
	zetan float64
	eta   float64
	rng   *rand.Rand
}

func newZipf(rng *rand.Rand, n int) *zipf {
	const theta = 0.99
	z := &zipf{n: n, theta: theta, rng: rng}
	z.zetan = zetaStatic(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - zetaStatic(2, theta)/z.zetan)
	return z
}

func zetaStatic(n int, theta float64) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

func (z *zipf) next() int {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	idx := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if idx >= z.n {
		idx = z.n - 1
	}
	// Scramble so hot keys spread over the keyspace (YCSB's hash).
	return int(uint64(idx)*2654435761) % z.n
}

// Client runs one YCSB job against one DB instance.
type Client struct {
	db   *lsm.DB
	cfg  Config
	rng  *rand.Rand
	zip  *zipf
	next int // insert cursor (workloads D/E)

	Ops    metrics.Counter
	Failed metrics.Counter
}

// NewClient wraps a DB.
func NewClient(db *lsm.DB, cfg Config, seed int64) *Client {
	rng := rand.New(rand.NewSource(seed))
	return &Client{db: db, cfg: cfg, rng: rng, zip: newZipf(rng, cfg.Records), next: cfg.Records}
}

// Load populates the dataset (the YCSB load phase).
func (c *Client) Load(p *sim.Proc) error {
	val := make([]byte, fieldLength)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	for i := 0; i < c.cfg.Records; i++ {
		if err := c.db.Put(p, key(i), val); err != nil {
			return fmt.Errorf("load %d: %w", i, err)
		}
	}
	return c.db.Flush(p)
}

func (c *Client) value() []byte {
	val := make([]byte, fieldLength)
	c.rng.Read(val)
	return val
}

// runOne executes a single operation of workload w.
func (c *Client) runOne(p *sim.Proc, w Workload) error {
	pick := c.rng.Intn(100)
	switch w {
	case WorkloadA:
		if pick < 50 {
			return c.read(p)
		}
		return c.update(p)
	case workloadB:
		if pick < 95 {
			return c.read(p)
		}
		return c.update(p)
	case WorkloadC:
		return c.read(p)
	case workloadD:
		if pick < 95 {
			return c.readLatest(p)
		}
		return c.insert(p)
	case workloadE:
		if pick < 95 {
			return c.scan(p)
		}
		return c.insert(p)
	default: // F
		if pick < 50 {
			return c.read(p)
		}
		return c.rmw(p)
	}
}

func (c *Client) read(p *sim.Proc) error {
	_, err := c.db.Get(p, key(c.zip.next()))
	if err == lsm.ErrNotFound {
		return nil // uninserted scrambled key: counted as an op, like YCSB
	}
	return err
}

func (c *Client) readLatest(p *sim.Proc) error {
	// Skew toward the most recent inserts.
	back := c.zip.next() % c.cfg.Records
	idx := c.next - 1 - back
	if idx < 0 {
		idx = 0
	}
	_, err := c.db.Get(p, key(idx))
	if err == lsm.ErrNotFound {
		return nil
	}
	return err
}

func (c *Client) update(p *sim.Proc) error {
	return c.db.Put(p, key(c.zip.next()), c.value())
}

func (c *Client) insert(p *sim.Proc) error {
	k := key(c.next)
	c.next++
	return c.db.Put(p, k, c.value())
}

func (c *Client) scan(p *sim.Proc) error {
	n := 1 + c.rng.Intn(maxScanLen)
	_, err := c.db.Scan(p, key(c.zip.next()), n)
	return err
}

func (c *Client) rmw(p *sim.Proc) error {
	k := key(c.zip.next())
	if _, err := c.db.Get(p, k); err != nil && err != lsm.ErrNotFound {
		return err
	}
	return c.db.Put(p, k, c.value())
}

// Run executes workload w until the deadline, counting ops completed inside
// the measurement window.
func (c *Client) Run(p *sim.Proc, w Workload, measFrom, measTo sim.Time) error {
	for p.Now() < measTo {
		if err := c.runOne(p, w); err != nil {
			c.Failed.Inc()
			return err
		}
		if t := p.Now(); t > measFrom && t <= measTo {
			c.Ops.Inc()
		}
	}
	return nil
}
