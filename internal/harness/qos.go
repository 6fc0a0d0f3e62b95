package harness

import (
	"nvmetro/internal/device"
	"nvmetro/internal/fio"
	"nvmetro/internal/qos"
	"nvmetro/internal/sim"
	"nvmetro/internal/stack"
)

// The qos experiment extends the Fig. 5 shared-worker setup with a noisy
// neighbor: a rate-gated latency-probe victim shares one router worker with
// a closed-loop aggressor. Without QoS the aggressor's batches inflate the
// victim's tail; with the WFQ arbiter (victim weighted up, aggressor capped
// at its contracted rate) the victim's p99 returns to its solo level while
// the aggressor is held to its share. A final row runs both tenants closed
// loop under 3:1 weights with no rate caps to show throughput converging to
// the weight ratio.

// aggrContractIOPS is the aggressor's contracted rate in the wfq scenario:
// its "fair share" by contract, which its closed-loop demand exceeds by
// well over 10x.
const aggrContractIOPS = 30000

// qosScenario is one noisy-neighbor configuration.
type qosScenario struct {
	useQoS bool
	aggr   bool       // run the aggressor group at all
	vCfg   fio.Config // victim workload
	aCfg   fio.Config // aggressor workload
	vQoS   qos.TenantConfig
	aQoS   qos.TenantConfig
}

// runQoSPair provisions two single-vCPU VMs on carved partitions over one
// shared router worker and runs the scenario, returning (victim, aggressor)
// results. The aggressor result is zero when the scenario runs solo.
//
// The router's per-operation costs are scaled 4x: the scenario is a
// congested shared worker (the arbitrated stage must be the scarce
// resource for arbitration to matter — at stock costs the device
// controller saturates first and shapes every tenant identically).
func runQoSPair(o Options, sc qosScenario) (fio.Result, fio.Result) {
	env := sim.New(o.Seed + 1)
	defer env.Close()
	p := stack.DefaultParams()
	p.Router.PollVQ *= 4
	p.Router.Classify *= 4
	p.Router.ClassifyNat *= 4
	p.Router.CompleteVCQ *= 4
	p.Router.IRQInject *= 4
	h := stack.NewHost(env, 12, 8, p, device.NullStore{})
	sol := stack.NewNVMetroShared(h, 1)
	if sc.useQoS {
		sol.WithQoS(qos.Config{})
	}
	parts := device.Carve(h.Dev, 1, 2)

	var vSpec, aSpec stack.Spec
	if sc.useQoS {
		vSpec.QoS, aSpec.QoS = &sc.vQoS, &sc.aQoS
	}

	vVM := h.NewVM(1, 16<<20)
	vDisk := sol.Attach(vVM, parts[0], vSpec).Disk
	aVM := h.NewVM(1, 16<<20)
	aDisk := sol.Attach(aVM, parts[1], aSpec).Disk

	groups := []fio.Group{
		{Name: "victim", Targets: []fio.Target{{Disk: vDisk, VM: vVM, VCPU: vVM.VCPU(0)}}, Cfg: sc.vCfg},
	}
	if sc.aggr {
		groups = append(groups, fio.Group{
			Name:    "aggressor",
			Targets: []fio.Target{{Disk: aDisk, VM: aVM, VCPU: aVM.VCPU(0)}},
			Cfg:     sc.aCfg,
		})
	}
	res := fio.RunMixed(env, h.CPU, groups)
	if !sc.aggr {
		return res[0], fio.Result{}
	}
	return res[0], res[1]
}

// qosTable runs the four scenarios and renders the isolation table.
func qosTable(o Options) *Table {
	warm, dur := o.latWindows()
	probe := fio.Config{Mode: fio.RandRead, BlockSize: 512, QD: 4, RateIOPS: 20000, Warmup: warm, Duration: dur}
	flood := fio.Config{Mode: fio.RandWrite, BlockSize: 512, QD: 128, Warmup: warm, Duration: dur}
	closed := fio.Config{Mode: fio.RandWrite, BlockSize: 512, QD: 32, Warmup: warm, Duration: dur}

	scenarios := []struct {
		label string
		sc    qosScenario
	}{
		{"victim solo", qosScenario{vCfg: probe}},
		{"no-qos + aggressor", qosScenario{aggr: true, vCfg: probe, aCfg: flood}},
		{"wfq + capped aggressor", qosScenario{
			useQoS: true, aggr: true, vCfg: probe, aCfg: flood,
			vQoS: qos.TenantConfig{Weight: 4, SLOTargetP99: 5 * sim.Millisecond},
			aQoS: qos.TenantConfig{Weight: 1, IOPS: aggrContractIOPS, BurstOps: 64},
		}},
		{"wfq 3:1 closed-loop", qosScenario{
			useQoS: true, aggr: true, vCfg: closed, aCfg: closed,
			vQoS: qos.TenantConfig{Weight: 3},
			aQoS: qos.TenantConfig{Weight: 1},
		}},
	}

	t := &Table{
		ID:    "qos",
		Title: "noisy-neighbor isolation on one shared router worker",
		Cols:  []string{"victim kIOPS", "victim p50 us", "victim p99 us", "aggr kIOPS"},
		Notes: "victim: rate-gated 512B randread probe; aggressor: closed-loop 512B randwrite.\n" +
			"last row: both closed-loop at 3:1 WFQ weights (victim = weight-3 tenant).",
	}
	rows := cells(o, len(scenarios), func(i int) []float64 {
		v, a := runQoSPair(o, scenarios[i].sc)
		return []float64{v.KIOPS(), float64(v.Lat.Median()) / 1e3, float64(v.Lat.P99()) / 1e3, a.KIOPS()}
	})
	for i, s := range scenarios {
		t.add(s.label, rows[i]...)
	}
	return t
}

func init() {
	register("qos", "QoS arbitration: noisy-neighbor isolation with WFQ, rate caps and SLOs", func(o Options) []*Table {
		return []*Table{qosTable(o)}
	})
}
