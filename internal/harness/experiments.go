package harness

import (
	"fmt"

	"nvmetro/internal/fio"
	"nvmetro/internal/ycsb"
)

// fioCase is one Table II configuration.
type fioCase struct {
	bs   uint32
	mode fio.Mode
	qd   int
	jobs int
}

func (c fioCase) label() string {
	return fmt.Sprintf("bs=%s %v qd=%d j=%d", bsName(c.bs), c.mode, c.qd, c.jobs)
}

func bsName(bs uint32) string {
	switch {
	case bs >= 1<<20:
		return fmt.Sprintf("%dM", bs>>20)
	case bs >= 1<<10:
		return fmt.Sprintf("%dK", bs>>10)
	}
	return fmt.Sprintf("%dB", bs)
}

// fig3Grid is the Table II matrix (trimmed under Quick).
func fig3Grid(o Options) []fioCase {
	if o.Quick {
		return []fioCase{
			{512, fio.RandRead, 1, 1}, {512, fio.RandWrite, 1, 1},
			{512, fio.RandRead, 128, 4}, {512, fio.RandRW, 128, 4},
			{16 << 10, fio.SeqRead, 1, 1}, {16 << 10, fio.SeqWrite, 1, 1},
			{16 << 10, fio.SeqRead, 128, 1}, {16 << 10, fio.SeqRead, 128, 4},
			{128 << 10, fio.SeqWrite, 128, 4},
		}
	}
	var cases []fioCase
	for _, m := range []fio.Mode{fio.RandRead, fio.RandWrite, fio.RandRW} {
		cases = append(cases, fioCase{512, m, 1, 1}, fioCase{512, m, 128, 1}, fioCase{512, m, 128, 4})
	}
	for _, bs := range []uint32{16 << 10, 128 << 10} {
		for _, m := range []fio.Mode{fio.SeqRead, fio.SeqWrite, fio.SeqRW} {
			for _, qd := range []int{1, 128} {
				for _, jobs := range []int{1, 4} {
					cases = append(cases, fioCase{bs, m, qd, jobs})
				}
			}
		}
	}
	return cases
}

// fioPair runs a fio grid over a solution set, producing the throughput
// table and its companion CPU table (the paper separates them into a
// performance figure and an overhead figure from the same runs).
func fioPair(o Options, idTp, idCPU, title string, sols []namedSol, grid []fioCase) (tp, cpu *Table) {
	var cols []string
	for _, s := range sols {
		cols = append(cols, s.name)
	}
	tp = &Table{ID: idTp, Title: title, Unit: "kIOPS", Cols: cols}
	cpu = &Table{ID: idCPU, Title: "CPU consumption for " + title, Unit: "avg busy cores", Cols: cols}
	warm, dur := o.windows()
	// Each (case, solution) cell is an isolated deterministic sim; run them
	// across workers and assemble in grid order.
	runs := cells(o, len(grid)*len(sols), func(k int) fio.Result {
		c, s := grid[k/len(sols)], sols[k%len(sols)]
		cfg := fio.Config{Mode: c.mode, BlockSize: c.bs, QD: c.qd, Warmup: warm, Duration: dur}
		return runFio(o, s.mk, cfg, c.jobs)
	})
	for gi, c := range grid {
		var tpCells, cpuCells []float64
		for _, r := range runs[gi*len(sols) : (gi+1)*len(sols)] {
			tpCells = append(tpCells, r.KIOPS())
			cpuCells = append(cpuCells, r.CPUCores)
		}
		tp.add(c.label(), tpCells...)
		cpu.add(c.label(), cpuCells...)
	}
	return tp, cpu
}

// cached memoizes expensive figure pairs so e.g. fig3 and fig11 share runs.
var cache = map[string][]*Table{}

func cachedPair(key string, build func() (tp, cpu *Table)) (tp, cpu *Table) {
	if ts, ok := cache[key]; ok {
		return ts[0], ts[1]
	}
	tp, cpu = build()
	cache[key] = []*Table{tp, cpu}
	return tp, cpu
}

func cacheKey(o Options, id string) string {
	// Workers is part of the key only so serial-vs-parallel comparison runs
	// (the determinism regression test) don't alias; results are identical.
	return fmt.Sprintf("%s/q=%v/s=%d/w=%d", id, o.Quick, o.Seed, o.Workers)
}

func fig3Pair(o Options) (tp, cpu *Table) {
	return cachedPair(cacheKey(o, "fig3"), func() (*Table, *Table) {
		return fioPair(o, "fig3", "fig11", "fio performance, basic evaluation", basicSolutions(), fig3Grid(o))
	})
}

func fig7Grid(o Options) []fioCase {
	if o.Quick {
		return []fioCase{
			{16 << 10, fio.SeqRead, 1, 1}, {16 << 10, fio.SeqWrite, 1, 1},
			{16 << 10, fio.SeqRead, 128, 4}, {16 << 10, fio.SeqWrite, 128, 4},
			{128 << 10, fio.SeqWrite, 128, 4},
		}
	}
	var cases []fioCase
	for _, m := range []fio.Mode{fio.RandRead, fio.RandWrite, fio.RandRW} {
		cases = append(cases, fioCase{512, m, 1, 1}, fioCase{512, m, 128, 4})
	}
	for _, bs := range []uint32{16 << 10, 128 << 10} {
		for _, m := range []fio.Mode{fio.SeqRead, fio.SeqWrite, fio.SeqRW} {
			cases = append(cases, fioCase{bs, m, 1, 1}, fioCase{bs, m, 128, 4})
		}
	}
	return cases
}

func fig7Pair(o Options) (tp, cpu *Table) {
	return cachedPair(cacheKey(o, "fig7"), func() (*Table, *Table) {
		return fioPair(o, "fig7", "fig12", "fio performance, disk encryption", encSolutions(), fig7Grid(o))
	})
}

func fig9Pair(o Options) (tp, cpu *Table) {
	return cachedPair(cacheKey(o, "fig9"), func() (*Table, *Table) {
		return fioPair(o, "fig9", "fig13", "fio performance, disk replication", repSolutions(), fig7Grid(o))
	})
}

// ycsbTable runs the six workloads at 1 and 4 jobs for a solution set.
func ycsbTable(o Options, id, title string, sols []namedSol) *Table {
	var cols []string
	for _, s := range sols {
		cols = append(cols, s.name)
	}
	t := &Table{ID: id, Title: title, Unit: "kOps/s", Cols: cols}
	workloads := ycsb.All()
	if o.Quick {
		workloads = []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadC, ycsb.WorkloadF}
	}
	type row struct {
		w    ycsb.Workload
		jobs int
	}
	var rows []row
	for _, jobs := range []int{1, 4} {
		for _, w := range workloads {
			rows = append(rows, row{w, jobs})
		}
	}
	kops := cells(o, len(rows)*len(sols), func(k int) float64 {
		rw, s := rows[k/len(sols)], sols[k%len(sols)]
		return runYCSB(o, s.mk, rw.w, rw.jobs)
	})
	for ri, rw := range rows {
		t.add(fmt.Sprintf("%v j=%d", rw.w, rw.jobs), kops[ri*len(sols):(ri+1)*len(sols)]...)
	}
	return t
}

func init() {
	register("table1", "Source code sizes of NVMetro classifier and UIF implementations", func(o Options) []*Table {
		return []*Table{table1LoC()}
	})

	register("table2", "List of fio benchmark configurations", func(o Options) []*Table {
		t := &Table{ID: "table2", Title: "fio benchmark configurations (Table II)", Cols: []string{"QD", "jobs"}}
		for _, c := range fig3Grid(Options{}) {
			t.add(fmt.Sprintf("bs=%s %v", bsName(c.bs), c.mode), float64(c.qd), float64(c.jobs))
		}
		return []*Table{t}
	})

	register("fig3", "Basic evaluations: fio throughput per storage virtualization method", func(o Options) []*Table {
		tp, _ := fig3Pair(o)
		return []*Table{tp}
	})

	register("fig4", "Latency at a fixed 10 kIOPS rate (median and p99)", func(o Options) []*Table {
		sols := basicSolutions()
		var cols []string
		for _, s := range sols {
			cols = append(cols, s.name)
		}
		med := &Table{ID: "fig4", Title: "median latency at 10 kIOPS", Unit: "us", Cols: cols}
		p99 := &Table{ID: "fig4-p99", Title: "p99 latency at 10 kIOPS", Unit: "us", Cols: cols}
		warm, dur := o.latWindows()
		type latCase struct {
			bs   uint32
			mode fio.Mode
			qd   int
		}
		var cases []latCase
		if o.Quick {
			cases = []latCase{{512, fio.RandRead, 1}, {512, fio.RandWrite, 1}, {512, fio.RandRead, 32}}
		} else {
			for _, bs := range []uint32{512, 16 << 10, 128 << 10} {
				for _, m := range []fio.Mode{fio.RandRead, fio.RandWrite} {
					for _, qd := range []int{1, 4, 32, 128} {
						cases = append(cases, latCase{bs, m, qd})
					}
				}
			}
		}
		runs := cells(o, len(cases)*len(sols), func(k int) fio.Result {
			c, s := cases[k/len(sols)], sols[k%len(sols)]
			cfg := fio.Config{Mode: c.mode, BlockSize: c.bs, QD: c.qd, RateIOPS: 10000,
				Warmup: warm, Duration: dur}
			return runFio(o, s.mk, cfg, 1)
		})
		for ci, c := range cases {
			var medCells, p99Cells []float64
			for _, r := range runs[ci*len(sols) : (ci+1)*len(sols)] {
				medCells = append(medCells, float64(r.Lat.Median())/1e3)
				p99Cells = append(p99Cells, float64(r.Lat.P99())/1e3)
			}
			label := fmt.Sprintf("bs=%s %v qd=%d", bsName(c.bs), c.mode, c.qd)
			med.add(label, medCells...)
			p99.add(label, p99Cells...)
		}
		return []*Table{med, p99}
	})

	register("fig5", "NVMetro scalability with VM count (shared router worker)", func(o Options) []*Table {
		t := &Table{ID: "fig5", Title: "total throughput vs number of VMs", Unit: "kIOPS"}
		vmCounts := []int{1, 2, 4, 8}
		modes := []fio.Mode{fio.RandRead, fio.RandWrite, fio.RandRW}
		qds := []int{1, 4, 32, 128}
		if o.Quick {
			vmCounts = []int{1, 4}
			modes = []fio.Mode{fio.RandRead}
			qds = []int{1, 32}
		}
		for _, n := range vmCounts {
			t.Cols = append(t.Cols, fmt.Sprintf("%d VMs", n))
		}
		warm, dur := o.windows()
		type row struct {
			m  fio.Mode
			qd int
		}
		var rows []row
		for _, m := range modes {
			for _, qd := range qds {
				rows = append(rows, row{m, qd})
			}
		}
		kiops := cells(o, len(rows)*len(vmCounts), func(k int) float64 {
			rw, n := rows[k/len(vmCounts)], vmCounts[k%len(vmCounts)]
			cfg := fio.Config{Mode: rw.m, BlockSize: 512, QD: rw.qd, Warmup: warm, Duration: dur}
			return runFioScaled(o, n, cfg).KIOPS()
		})
		for ri, rw := range rows {
			t.add(fmt.Sprintf("%v qd=%d", rw.m, rw.qd), kiops[ri*len(vmCounts):(ri+1)*len(vmCounts)]...)
		}
		return []*Table{t}
	})

	register("fig6", "YCSB throughput per workload, basic solutions", func(o Options) []*Table {
		return []*Table{ycsbTable(o, "fig6", "YCSB on RocksDB-equivalent, basic solutions", basicSolutions())}
	})

	register("fig7", "Disk encryption evaluations with fio", func(o Options) []*Table {
		tp, _ := fig7Pair(o)
		return []*Table{tp}
	})

	register("fig8", "Disk encryption evaluations with YCSB", func(o Options) []*Table {
		return []*Table{ycsbTable(o, "fig8", "YCSB with disk encryption", encSolutions())}
	})

	register("fig9", "Disk replication evaluations with fio", func(o Options) []*Table {
		tp, _ := fig9Pair(o)
		return []*Table{tp}
	})

	register("fig10", "Disk replication evaluations with YCSB", func(o Options) []*Table {
		return []*Table{ycsbTable(o, "fig10", "YCSB with disk replication", repSolutions())}
	})

	register("fig11", "CPU consumption of fio with basic evaluation", func(o Options) []*Table {
		_, cpu := fig3Pair(o)
		return []*Table{cpu}
	})

	register("fig12", "CPU consumption of fio with disk encryption", func(o Options) []*Table {
		_, cpu := fig7Pair(o)
		return []*Table{cpu}
	})

	register("fig13", "CPU consumption of fio with disk replication", func(o Options) []*Table {
		_, cpu := fig9Pair(o)
		return []*Table{cpu}
	})
}
