package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	tpsim "repro"
	"repro/internal/trace"
)

// fileConfig is the JSON schema cmd/tpsim accepts: the engine's own Config,
// decoded in place (keys are its field names), plus the workload selector
// and the optional cluster section. A key the engine types do not carry is
// rejected.
type fileConfig struct {
	tpsim.Config

	Workload workloadConfig

	// Cluster switches the run to a multi-node data-sharing simulation:
	// numNodes transaction systems share the disk units and one global
	// NVEM, and workload.rate becomes the aggregate rate split evenly
	// over the nodes. Absent: a classic single-node run.
	Cluster *clusterConfig
}

// clusterConfig is the cluster section: the engine's ClusterConfig, whose
// failure, admission and pdes subsections switch their feature on by being
// present.
type clusterConfig struct {
	tpsim.ClusterConfig

	Failure   *tpsim.FailureConfig
	Admission *tpsim.AdmissionConfig
	PDES      *tpsim.PDESConfig
}

// workloadConfig selects and sizes the workload generator.
type workloadConfig struct {
	Kind string // "debitcredit" (default), "trace", "synthetic" or "classes"
	Rate float64

	// Arrival selects the arrival process of every transaction-type
	// stream. Absent: Poisson (the paper's evaluation).
	Arrival tpsim.ArrivalSpec

	// Access skews the object draws: the within-branch account selection
	// for debitcredit, the CUSTOMER selection for classes. Absent: uniform
	// (the paper's evaluation).
	Access *tpsim.AccessSpec

	// Classes is the multi-class mix of workload kind "classes": the
	// standard two-partition database with one transaction class per entry,
	// reported separately in the result's per-class lines.
	Classes []tpsim.ClassSpec

	// Debit-Credit overrides (zero = Table 4.1 defaults).
	Branches  int64
	Accounts  int64
	Uncluster bool

	// Trace replay. PerTypeRates switches to one arrival stream per
	// transaction type instead of a single ordered replay at Rate.
	TraceFile    string
	PerTypeRates []float64

	// General synthetic model.
	Synthetic *tpsim.Model
}

// load reads and validates a run configuration: the single-node engine
// configuration, plus a cluster description when the file carries a
// cluster section (the returned Config is then the cluster's Base).
func load(r io.Reader) (tpsim.Config, *tpsim.ClusterConfig, error) {
	fc := fileConfig{Config: tpsim.Defaults()}
	fc.Buffer.Logging = true
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&fc); err != nil {
		return tpsim.Config{}, nil, fmt.Errorf("parse config: %w", err)
	}

	n := 1
	if fc.Cluster != nil {
		if n = fc.Cluster.NumNodes; n <= 0 {
			return tpsim.Config{}, nil, fmt.Errorf("cluster.numNodes = %d", n)
		}
	}
	// Generators are stateful: every node gets a fresh instance fed an
	// even share of the configured aggregate rate.
	w := fc.Workload.perNode(n)
	gens := make([]tpsim.Generator, n)
	cfg := fc.Config
	for i := range gens {
		gen, parts, err := w.generator()
		if err != nil {
			return tpsim.Config{}, nil, err
		}
		if i == 0 {
			cfg.Partitions = parts
		}
		gens[i] = gen
	}
	cfg.Generator = gens[0]
	cfg.Arrival = w.Arrival

	// Partitions beyond the ccModes list lock at page level.
	if len(cfg.CCModes) > len(cfg.Partitions) {
		return tpsim.Config{}, nil, fmt.Errorf("ccModes has %d entries for %d workload partitions",
			len(cfg.CCModes), len(cfg.Partitions))
	}
	for len(cfg.CCModes) < len(cfg.Partitions) {
		cfg.CCModes = append(cfg.CCModes, tpsim.PageLevel)
	}
	if len(cfg.Buffer.Partitions) != len(cfg.Partitions) {
		return tpsim.Config{}, nil, fmt.Errorf("buffer.partitions has %d entries for %d workload partitions",
			len(cfg.Buffer.Partitions), len(cfg.Partitions))
	}

	if fc.Cluster == nil {
		return cfg, nil, cfg.Validate()
	}
	cl := fc.Cluster.ClusterConfig
	cl.Base, cl.Generators = cfg, gens
	if f := fc.Cluster.Failure; f != nil {
		cl.Failure = *f
		cl.Failure.Enabled = true
	}
	if a := fc.Cluster.Admission; a != nil {
		cl.Admission = *a
		cl.Admission.Enabled = true
	}
	if p := fc.Cluster.PDES; p != nil {
		cl.PDES = *p
		cl.PDES.Enabled = true
	}
	return cfg, &cl, cl.Validate()
}

// perNode returns the workload one of n nodes runs: the aggregate rates
// split evenly.
func (w workloadConfig) perNode(n int) workloadConfig {
	w.Rate /= float64(n)
	if len(w.PerTypeRates) > 0 {
		rates := make([]float64, len(w.PerTypeRates))
		for i, rate := range w.PerTypeRates {
			rates[i] = rate / float64(n)
		}
		w.PerTypeRates = rates
	}
	return w
}

// generator builds a fresh generator for the selected workload and returns
// it with the workload's partitions.
func (w *workloadConfig) generator() (tpsim.Generator, []tpsim.Partition, error) {
	var skew tpsim.AccessSpec
	if w.Access != nil {
		skew = *w.Access
		if err := skew.Validate(); err != nil {
			return nil, nil, err
		}
		switch w.Kind {
		case "debitcredit", "", "classes":
		default:
			return nil, nil, fmt.Errorf("workload.access is not supported for kind %q", w.Kind)
		}
	}
	switch w.Kind {
	case "debitcredit", "":
		dcc := tpsim.DefaultDebitCreditConfig(w.Rate)
		if w.Branches > 0 {
			dcc.NumBranches = w.Branches
		}
		if w.Accounts > 0 {
			dcc.NumAccounts = w.Accounts
		}
		if w.Uncluster {
			dcc.ClusterBranchTeller = false
		}
		dcc.AccountSkew = skew
		gen, err := tpsim.NewDebitCredit(dcc)
		if err != nil {
			return nil, nil, err
		}
		return gen, gen.Partitions(), nil
	case "classes":
		if len(w.Classes) == 0 {
			return nil, nil, fmt.Errorf("workload.kind classes requires workload.classes")
		}
		m, err := tpsim.ClassMixModel(w.Classes, skew)
		if err != nil {
			return nil, nil, err
		}
		gen, err := tpsim.NewSynthetic(m)
		if err != nil {
			return nil, nil, err
		}
		return gen, m.Partitions, nil
	case "trace":
		f, err := os.Open(w.TraceFile)
		if err != nil {
			return nil, nil, err
		}
		tr, err := trace.Read(f)
		f.Close()
		if err != nil {
			return nil, nil, err
		}
		var src *tpsim.TraceSource
		if len(w.PerTypeRates) > 0 {
			src, err = tpsim.NewTraceSourceByType(tr, w.PerTypeRates)
		} else {
			src, err = tpsim.NewTraceSource(tr, w.Rate)
		}
		if err != nil {
			return nil, nil, err
		}
		return src, src.Partitions(), nil
	case "synthetic":
		if w.Synthetic == nil {
			return nil, nil, fmt.Errorf("workload.kind synthetic requires workload.synthetic")
		}
		for i := range w.Synthetic.TxTypes {
			if w.Synthetic.TxTypes[i].ArrivalRate == 0 {
				w.Synthetic.TxTypes[i].ArrivalRate = w.Rate
			}
		}
		gen, err := tpsim.NewSynthetic(w.Synthetic)
		if err != nil {
			return nil, nil, err
		}
		return gen, w.Synthetic.Partitions, nil
	default:
		return nil, nil, fmt.Errorf("unknown workload kind %q", w.Kind)
	}
}
