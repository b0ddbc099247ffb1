package core

import (
	"reflect"
	"testing"

	"repro/internal/storage"
)

// pdesCluster builds a PDES-enabled Debit-Credit cluster over the
// dcCluster template (global locking on, shared NVEM off).
func pdesCluster(t *testing.T, nodes int, aggregateRate float64, workers int) ClusterConfig {
	t.Helper()
	cfg := dcCluster(t, nodes, aggregateRate, false)
	cfg.PDES = PDESConfig{Enabled: true, Workers: workers}
	return cfg
}

// pdesSharedCluster builds a PDES cluster with the cluster-shared NVEM
// cache and the positive access latency that makes it parallelizable.
func pdesSharedCluster(t *testing.T, nodes int, aggregateRate float64, workers int) ClusterConfig {
	t.Helper()
	cfg := dcCluster(t, nodes, aggregateRate, true)
	cfg.PDES = PDESConfig{Enabled: true, Workers: workers}
	cfg.NVEMAccessDelayMS = 0.15
	return cfg
}

// runPDES executes one PDES cluster run.
func runPDES(t *testing.T, cfg ClusterConfig) *ClusterResult {
	t.Helper()
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPDESWorkerCountInvariant pins PDESConfig.Workers as a knob that
// cannot change a Result: configurations that set any value must render
// exactly what Workers = 1 renders.
func TestPDESWorkerCountInvariant(t *testing.T) {
	serial := runPDES(t, pdesCluster(t, 3, 300, 1))
	if serial.Cluster.Commits == 0 {
		t.Fatal("PDES run produced no commits")
	}
	if serial.Cluster.LockMsgs == 0 {
		t.Fatal("global locking under PDES produced no messages")
	}
	for _, workers := range []int{2, 4, 0} {
		parallel := runPDES(t, pdesCluster(t, 3, 300, workers))
		for i := range serial.Nodes {
			if !reflect.DeepEqual(serial.Nodes[i], parallel.Nodes[i]) {
				t.Fatalf("workers=%d: node %d diverged from the serial run:\n%+v\nvs\n%+v",
					workers, i, parallel.Nodes[i], serial.Nodes[i])
			}
		}
		if got, want := parallel.Report(), serial.Report(); got != want {
			t.Fatalf("workers=%d: report diverged:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestPDESFailureWorkerCountInvariant extends the worker-count pin across
// the hardest schedule: a mid-window crash whose arrivals reroute through
// barrier messages, admission shedding on the survivors, in-flight lock
// requests of killed transactions, and redo recovery on the crashed node's
// own kernel.
func TestPDESFailureWorkerCountInvariant(t *testing.T) {
	build := func(workers int) ClusterConfig {
		cfg := pdesCluster(t, 3, 360, workers)
		cfg.Base.Buffer.CheckpointIntervalMS = 1000
		cfg.Failure = FailureConfig{Enabled: true, Node: 1, CrashAtMS: 800, RebootMS: 600}
		cfg.Admission = AdmissionConfig{Enabled: true}
		cfg.TimelineBucketMS = 250
		return cfg
	}
	serial := runPDES(t, build(1))
	if serial.Cluster.Restart == nil {
		t.Fatal("crash injected but no restart report")
	}
	parallel := runPDES(t, build(4))
	for i := range serial.Nodes {
		if !reflect.DeepEqual(serial.Nodes[i], parallel.Nodes[i]) {
			t.Fatalf("node %d diverged across worker counts:\n%+v\nvs\n%+v",
				i, parallel.Nodes[i], serial.Nodes[i])
		}
	}
	if got, want := parallel.Report(), serial.Report(); got != want {
		t.Fatalf("failure-run report diverged:\n%s\nvs\n%s", got, want)
	}
	// The crashed node's outage must be visible: its arrivals rerouted to
	// the survivors, so it commits strictly less than either of them.
	for _, i := range []int{0, 2} {
		if serial.Nodes[1].Commits >= serial.Nodes[i].Commits {
			t.Fatalf("crashed node committed %d, survivor %d committed %d — no outage visible",
				serial.Nodes[1].Commits, i, serial.Nodes[i].Commits)
		}
	}
}

// TestPDESWorkerCountInvariant256 pins the Workers contract at 256
// kernels, short windows so the pin stays cheap enough for -race CI.
func TestPDESWorkerCountInvariant256(t *testing.T) {
	build := func(workers int) ClusterConfig {
		cfg := pdesCluster(t, 256, 2560, workers)
		cfg.Base.WarmupMS = 150
		cfg.Base.MeasureMS = 300
		return cfg
	}
	serial := runPDES(t, build(1))
	if serial.Cluster.Commits == 0 {
		t.Fatal("256-node PDES run produced no commits")
	}
	for _, workers := range []int{2, 4, 8} {
		parallel := runPDES(t, build(workers))
		for i := range serial.Nodes {
			if !reflect.DeepEqual(serial.Nodes[i], parallel.Nodes[i]) {
				t.Fatalf("workers=%d: node %d diverged from the serial run:\n%+v\nvs\n%+v",
					workers, i, parallel.Nodes[i], serial.Nodes[i])
			}
		}
		if got, want := parallel.Report(), serial.Report(); got != want {
			t.Fatalf("workers=%d: report diverged:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestPDESCrash256 is the 256-node crash scenario CI runs under the race
// detector: a mid-window crash with rerouted arrivals and redo recovery,
// at Workers 1 and 8. Divergence or a data race here means the
// coordinator broke the contract under the hardest schedule at full
// scale.
func TestPDESCrash256(t *testing.T) {
	build := func(workers int) ClusterConfig {
		cfg := pdesCluster(t, 256, 2560, workers)
		cfg.Base.WarmupMS = 150
		cfg.Base.MeasureMS = 300
		cfg.Base.Buffer.CheckpointIntervalMS = 200
		cfg.Failure = FailureConfig{Enabled: true, Node: 17, CrashAtMS: 200, RebootMS: 150}
		return cfg
	}
	serial := runPDES(t, build(1))
	if serial.Cluster.Restart == nil {
		t.Fatal("crash injected but no restart report")
	}
	parallel := runPDES(t, build(8))
	for i := range serial.Nodes {
		if !reflect.DeepEqual(serial.Nodes[i], parallel.Nodes[i]) {
			t.Fatalf("node %d diverged across worker counts:\n%+v\nvs\n%+v",
				i, parallel.Nodes[i], serial.Nodes[i])
		}
	}
	if got, want := parallel.Report(), serial.Report(); got != want {
		t.Fatalf("256-node crash report diverged:\n%s\nvs\n%s", got, want)
	}
}

// TestPDESSharedNVEMWorkerCountInvariant pins the newest cross-node
// traffic class — shared-NVEM-cache probes, inserts and dirty hand-offs
// travelling as lookahead messages — to the same worker-count contract,
// and checks the shared cache actually serves remote hits under PDES.
func TestPDESSharedNVEMWorkerCountInvariant(t *testing.T) {
	serial := runPDES(t, pdesSharedCluster(t, 3, 300, 1))
	if serial.Cluster.Commits == 0 {
		t.Fatal("shared-NVEM PDES run produced no commits")
	}
	if serial.Cluster.Buffer.NVEMCacheHits == 0 {
		t.Fatal("shared NVEM cache under PDES served no hits")
	}
	if serial.Cluster.Invalidations == 0 {
		t.Fatal("write-invalidate coherence under PDES recorded no invalidations")
	}
	for _, workers := range []int{2, 4, 0} {
		parallel := runPDES(t, pdesSharedCluster(t, 3, 300, workers))
		for i := range serial.Nodes {
			if !reflect.DeepEqual(serial.Nodes[i], parallel.Nodes[i]) {
				t.Fatalf("workers=%d: node %d diverged from the serial run:\n%+v\nvs\n%+v",
					workers, i, parallel.Nodes[i], serial.Nodes[i])
			}
		}
		if got, want := parallel.Report(), serial.Report(); got != want {
			t.Fatalf("workers=%d: report diverged:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestPDESSharedNVEMRepeatable: the shared-cache configuration renders
// identical reports across two runs (the golden corpus relies on it).
func TestPDESSharedNVEMRepeatable(t *testing.T) {
	a := runPDES(t, pdesSharedCluster(t, 2, 200, 2))
	b := runPDES(t, pdesSharedCluster(t, 2, 200, 2))
	if ar, br := a.Report(), b.Report(); ar != br {
		t.Fatalf("shared-NVEM PDES runs diverged:\n%s\nvs\n%s", ar, br)
	}
}

// TestPDESRepeatable: two PDES runs of one configuration render identical
// reports (the cluster-level determinism the golden corpus relies on).
func TestPDESRepeatable(t *testing.T) {
	a := runPDES(t, pdesCluster(t, 2, 200, 2))
	b := runPDES(t, pdesCluster(t, 2, 200, 2))
	if ar, br := a.Report(), b.Report(); ar != br {
		t.Fatalf("PDES runs diverged:\n%s\nvs\n%s", ar, br)
	}
}

// TestPDESValidate covers the parallel engine's configuration checks.
func TestPDESValidate(t *testing.T) {
	bad := dcCluster(t, 2, 200, true) // shared NVEM cache, no access delay
	bad.PDES = PDESConfig{Enabled: true}
	if _, err := RunCluster(bad); err == nil {
		t.Fatal("PDES with a shared NVEM cache and NVEMAccessDelayMS = 0 must error")
	}
	bad.NVEMAccessDelayMS = -0.1
	if _, err := RunCluster(bad); err == nil {
		t.Fatal("negative NVEMAccessDelayMS must error")
	}
	ok := pdesSharedCluster(t, 2, 200, 1)
	if err := ok.Validate(); err != nil {
		t.Fatalf("PDES with a shared NVEM cache and a positive delay must validate: %v", err)
	}
	bad = pdesCluster(t, 2, 200, -1)
	if _, err := RunCluster(bad); err == nil {
		t.Fatal("negative Workers must error")
	}
}

// TestPDESInvalidateLoadInFlight pins the in-flight half of filtered
// invalidation delivery. An invalidation is scheduled at the barrier only
// on peers that hold the page then; a peer that loads the page after the
// barrier but before the arrival must still lose its copy at the arrival
// instant. The coherence latency (0.15 ms) exceeds the lookahead (0.1 ms),
// so the invalidation sent at 0.09 ms arrives at 0.24 ms, two windows
// after the barrier that published it. Node 1 loads the page in the first
// of those windows, node 2 after the second barrier; both copies go at
// 0.24 ms. A copy loaded after the arrival (node 1 again) stays.
func TestPDESInvalidateLoadInFlight(t *testing.T) {
	const (
		sendAt  = 0.09
		arrive  = sendAt + 0.15
		eps     = 1e-6
		reload  = 0.26
		horizon = 0.4
	)
	type probe struct {
		node  int
		at    float64
		holds bool
		inval int64
	}
	for _, workers := range []int{1, 2} {
		cfg := pdesCluster(t, 3, 300, workers)
		nodeCfgs := make([]Config, cfg.NumNodes)
		for i := range nodeCfgs {
			nodeCfgs[i] = cfg.Base
			nodeCfgs[i].Generator = cfg.Generators[i]
		}
		c, err := newCluster(cfg.Base.Seed, nodeCfgs, clusterOpts{
			pdes:            cfg.PDES,
			pdesLookahead:   0.1,
			pdesLockDelay:   0.1,
			nvemAccessDelay: 0.15,
		})
		if err != nil {
			t.Fatal(err)
		}
		key := storage.PageKey{Partition: 0, Page: 4242}
		fix := func(n *node, at float64) {
			p := n.s.NewProcess("loader")
			n.s.Schedule(at, func() { n.bm.Fix(p, key, false, func() {}) })
		}
		want := []probe{
			{1, arrive - eps, true, 0}, {1, arrive + eps, false, 1},
			{2, arrive - eps, true, 0}, {2, arrive + eps, false, 1},
			{1, reload + eps, true, 1},
		}
		results := make([]probe, len(want))
		for i, w := range want {
			n := c.nodes[w.node]
			n.s.Schedule(w.at, func() {
				results[i] = probe{n.id, w.at, n.bm.Holds(key), n.invalidations}
			})
		}
		for _, n := range c.nodes {
			n.stopArrivals = true
		}
		writer := c.nodes[0]
		writer.s.Schedule(sendAt, func() { c.invalidate(writer.id, key) })
		fix(c.nodes[1], 0.15)
		fix(c.nodes[2], 0.22)
		fix(c.nodes[1], reload)
		c.pdes.run([]phaseStep{{name: "end", at: horizon}})
		if !reflect.DeepEqual(results, want) {
			t.Errorf("workers=%d: probes (node, at, holds, invalidations)\n got %v\nwant %v", workers, results, want)
		}
		c.finish()
	}
}
