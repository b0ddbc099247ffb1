package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/workload"
)

// A workload is one fixed configuration of the simulator. setup builds a
// fresh instance for one engine call from the seed; everything it does is
// counted as set-up time.
type workloadDef struct {
	name string
	// paperMMHitPct is the paper's main-memory hit ratio for this
	// configuration (0: the paper reports none).
	paperMMHitPct float64
	setup         func(seed int64, st *setupTimes) (*instance, error)
}

// setupTimes splits one set-up into the layers it calls.
type setupTimes struct {
	build time.Duration // experiments.*Setup.Build
	synth time.Duration // trace.GenerateRealLife
}

// instance is one set-up workload, ready for a single engine call.
type instance struct {
	single  *core.Config        // single-node workloads
	cluster *core.ClusterConfig // the PDES cluster workload
}

// generators returns the generator slots the engine will call, so the
// benchmark can wrap them.
func (in *instance) generators() []*workload.Generator {
	if in.single != nil {
		return []*workload.Generator{&in.single.Generator}
	}
	out := make([]*workload.Generator, len(in.cluster.Generators))
	for i := range in.cluster.Generators {
		out[i] = &in.cluster.Generators[i]
	}
	return out
}

// base returns the per-node engine configuration.
func (in *instance) base() *core.Config {
	if in.single != nil {
		return in.single
	}
	return &in.cluster.Base
}

// outcome is what one engine call produced.
type outcome struct {
	report    string
	agg       *core.Result
	nodes     []*core.Result // per-node results of a cluster run
	measureMS float64
}

// run makes the engine call.
func (in *instance) run() (*outcome, error) {
	if in.single != nil {
		res, err := core.Run(*in.single)
		if err != nil {
			return nil, err
		}
		return &outcome{report: res.Report(), agg: res, measureMS: in.single.MeasureMS}, nil
	}
	res, err := core.RunCluster(*in.cluster)
	if err != nil {
		return nil, err
	}
	return &outcome{report: res.Report(), agg: res.Cluster, nodes: res.Nodes,
		measureMS: in.cluster.Base.MeasureMS}, nil
}

// Window lengths. One engine call takes 0.5 to 1.5 s on a 2-core Xeon, so
// a 30-second run makes 20 to 60 calls to take medians over.
const (
	dcMeasureScale    = 20   // × the 10 s quick window: 200 s at 500 TPS
	pdesWindowScale   = 0.2  // × the quick windows, as cluster.scaleout256
	traceRate         = 20.0 // TPS, the rate of the trace experiments
	dcRate            = 500.0
	pdesNodes         = 64
	pdesRatePerNode   = 50.0
	pdesWorkers       = 2
	paperMMHitPct2000 = 72.5 // section 4.3: Debit-Credit, 2000-page buffer
)

func quickOptions(seed int64) experiments.Options {
	return experiments.Options{Seed: seed, Quick: true}
}

var workloads = []workloadDef{
	{
		name:          "dc-disk",
		paperMMHitPct: paperMMHitPct2000,
		setup: func(seed int64, st *setupTimes) (*instance, error) {
			t0 := time.Now()
			cfg, err := experiments.DCSetup{
				Rate: dcRate, MMBuffer: 2000,
				DB:           experiments.DBSpec{Kind: experiments.DBRegular},
				Log:          experiments.LogSpec{Kind: experiments.LogDisk},
				MeasureScale: dcMeasureScale,
			}.Build(quickOptions(seed))
			st.build += time.Since(t0)
			if err != nil {
				return nil, err
			}
			return &instance{single: &cfg}, nil
		},
	},
	{
		name: "trace-nvem",
		setup: func(seed int64, st *setupTimes) (*instance, error) {
			t0 := time.Now()
			tr := trace.GenerateRealLife(seed)
			st.synth += time.Since(t0)
			src, err := trace.NewSource(tr, traceRate)
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			cfg, err := experiments.TraceSetup{
				MMBuffer: 500,
				DB:       experiments.DBSpec{Kind: experiments.DBNVEMCache, Size: 2000},
				Log:      experiments.LogSpec{Kind: experiments.LogNVEM},
			}.Build(quickOptions(seed))
			st.build += time.Since(t1)
			if err != nil {
				return nil, err
			}
			// TraceSetup replays the registry's fixed trace; this workload
			// replays the one synthesised from its own seed. Both come from
			// the same spec, so the partitions are the same.
			if len(src.Partitions()) != len(cfg.Partitions) {
				return nil, fmt.Errorf("trace-nvem: %d trace files, setup has %d partitions",
					len(src.Partitions()), len(cfg.Partitions))
			}
			cfg.Generator = src
			// One measurement window replays the whole trace once, so every
			// seed's window holds the same mix of transaction types.
			cfg.MeasureMS = 1000 * float64(src.Len()) / traceRate
			return &instance{single: &cfg}, nil
		},
	},
	{
		name: "pdes64-shared",
		setup: func(seed int64, st *setupTimes) (*instance, error) {
			t0 := time.Now()
			cfg, err := experiments.ClusterSetup{
				Nodes: pdesNodes, AggregateRate: pdesRatePerNode * pdesNodes,
				MMBuffer: 500, SharedNVEM: 2000, GlobalLocks: true,
				PDES: true, PDESWorkers: pdesWorkers,
				NVEMAccessDelayMS: 0.15, WindowScale: pdesWindowScale,
				DBControllers: 2, DBDisks: 12, LogControllers: 1, LogDisks: 2,
			}.Build(quickOptions(seed))
			st.build += time.Since(t0)
			if err != nil {
				return nil, err
			}
			return &instance{cluster: &cfg}, nil
		},
	},
}

func findWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// newStream derives a benchmark-side random stream from the seed.
func newStream(seed int64, name string) *rng.Stream { return rng.NewStream(seed, "perfbench/"+name) }
