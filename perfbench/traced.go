package main

import (
	"fmt"
	"strings"
	"time"
)

// traced measures the per-layer metrics. Engine calls alternate between
// the plain generator and the tracing wrapper, so the same run also gives
// the tracing overhead. Per-layer host times come from timing calls into
// each layer's public functions from this package; the engine itself
// carries no instrumentation.
func (b *bench) traced() error {
	if err := b.warmUp(); err != nil {
		return err
	}
	cluster := b.refOut.nodes != nil

	var setups, builds, synths, plainRun, tracedRun []float64
	var nsPerCommit, allocsPerCommit, bytesPerCommit []float64
	var gcCycles, gcPauseMS, nextNS, nextCalls []float64
	var captured []*tracedGen
	deadline := time.Now().Add(time.Duration(b.o.seconds) * time.Second)
	for i := 0; i < 4 || time.Now().Before(deadline); i++ {
		traced := i%2 == 1
		c, err := b.measure(b.batch, traced, 0)
		if err != nil {
			return err
		}
		b.checkOutcome(c.out)
		setups = append(setups, c.setup)
		builds = append(builds, c.build)
		synths = append(synths, c.synth)
		commits := float64(c.out.agg.Commits)
		if !traced {
			plainRun = append(plainRun, c.run.Seconds())
			nsPerCommit = append(nsPerCommit, float64(c.run.Nanoseconds())/commits)
			allocsPerCommit = append(allocsPerCommit, float64(c.mallocs)/commits)
			bytesPerCommit = append(bytesPerCommit, float64(c.allocBytes)/commits)
			gcCycles = append(gcCycles, float64(c.gcCycles))
			gcPauseMS = append(gcPauseMS, float64(c.gcPause.Nanoseconds())/1e6)
			continue
		}
		tracedRun = append(tracedRun, c.run.Seconds())
		var calls, ns int64
		for _, g := range c.gens {
			calls += g.calls
			ns += g.nextNS
		}
		nextNS = append(nextNS, float64(ns)/float64(calls))
		nextCalls = append(nextCalls, float64(calls))
		if captured == nil {
			captured = c.gens
		}
	}

	// Set-up, split by layer.
	b.set("experiments.build_s", median(builds), "s")
	if b.w.name == "trace-nvem" {
		b.set("trace.synth_s", median(synths), "s")
	} else {
		b.na("trace.synth_s", "s")
	}
	b.samples["setup_s"] = setups

	// Tracing overhead: traced against plain engine calls of this run.
	b.set("bench.trace_overhead_pct", 100*(median(tracedRun)/median(plainRun)-1), "%")

	// workload: the inputs the generators produced.
	var refs, writes int64
	nodeTxs := make([][][]ref, len(captured))
	var allTxs [][]ref
	for i, g := range captured {
		nodeTxs[i] = g.txs
		for _, tx := range g.txs {
			for _, r := range tx {
				refs++
				if r.write {
					writes++
				}
			}
		}
	}
	// Interleave the nodes' transactions round-robin: the order a shared
	// lock manager sees them in.
	for round := 0; ; round++ {
		more := false
		for _, txs := range nodeTxs {
			if round < len(txs) {
				allTxs = append(allTxs, txs[round])
				more = true
			}
		}
		if !more {
			break
		}
	}
	b.set("workload.next_ns", median(nextNS), "ns")
	b.set("workload.next_calls", median(nextCalls), "count")
	b.set("workload.refs_per_tx", float64(refs)/float64(len(allTxs)), "count/tx")
	b.set("workload.write_frac", float64(writes)/float64(refs), "frac")

	// core: host cost of the engine call, and the Result's own counts.
	r := b.refOut.agg
	commits := float64(r.Commits)
	b.set("core.run_s", median(plainRun), "s")
	b.set("core.ns_per_commit", median(nsPerCommit), "ns")
	b.set("core.allocs_per_commit", median(allocsPerCommit), "count")
	b.set("core.bytes_per_commit", median(bytesPerCommit), "B")
	b.set("core.commits", commits, "count")
	b.set("core.aborts", float64(r.Aborts), "count")
	b.set("core.cpu_util", r.CPUUtil, "frac")
	b.set("go.gc_cycles", median(gcCycles), "count")
	b.set("go.gc_pause_ms", median(gcPauseMS), "ms")

	// core.pdes: the parallel engine against itself at one worker.
	if cluster {
		serial, err := b.serialCheck()
		if err != nil {
			return err
		}
		b.set("core.pdes.serial_run_s", serial.Seconds(), "s")
		b.set("core.pdes.speedup", serial.Seconds()/median(plainRun), "x")
		b.set("core.pdes.lock_msgs_per_commit", float64(r.LockMsgs)/commits, "count")
		b.set("core.pdes.invalidations_per_commit", float64(r.Invalidations)/commits, "count")
		b.set("core.pdes.dirty_handoffs", float64(r.DirtyHandoffs), "count")
	} else {
		b.na("core.pdes.serial_run_s", "s")
		b.na("core.pdes.speedup", "x")
		b.na("core.pdes.lock_msgs_per_commit", "count")
		b.na("core.pdes.invalidations_per_commit", "count")
		b.na("core.pdes.dirty_handoffs", "count")
	}

	// buffer: the Result's counts, then Fix and Invalidate replays.
	buf := r.Buffer
	b.set("buffer.fixes_per_commit", float64(buf.Fixes)/commits, "count")
	b.set("buffer.mm_hit_pct", r.MMHitPct, "%")
	b.set("buffer.nvem_hit_pct", r.NVEMAddHitPct, "%")
	b.set("buffer.device_reads_per_commit", float64(buf.DeviceReads)/commits, "count")
	b.set("buffer.victim_writes_per_commit", float64(buf.VictimWrites)/commits, "count")
	b.set("buffer.log_writes_per_commit", float64(buf.LogWrites)/commits, "count")
	if b.w.paperMMHitPct > 0 {
		b.set("buffer.mmhit_err_pp", r.MMHitPct-b.w.paperMMHitPct, "pp")
	} else {
		b.na("buffer.mmhit_err_pp", "pp")
	}

	in, err := b.setup(nil)
	if err != nil {
		return err
	}
	base := in.base()
	var layers strings.Builder
	fmt.Fprintf(&layers, "workload calls=%d refs=%d writes=%d\n", int64(median(nextCalls)), refs, writes)
	if cluster {
		inv, err := replayInvalidate(base, nodeTxs, b.o.seed)
		if err != nil {
			return err
		}
		b.set("buffer.fix_ns", inv.fixNS, "ns")
		b.set("buffer.invalidate_ns", inv.invalNS, "ns")
		b.set("buffer.invalidate_useful_pct", pct(inv.useful, inv.calls), "%")
		fmt.Fprintf(&layers, "invalidate fixes=%d calls=%d useful=%d\n", inv.fixes, inv.calls, inv.useful)
	} else {
		fx, err := replayFix(base, allTxs, b.o.seed)
		if err != nil {
			return err
		}
		b.set("buffer.fix_ns", fx.ns, "ns")
		b.na("buffer.invalidate_ns", "ns")
		b.na("buffer.invalidate_useful_pct", "%")
		fmt.Fprintf(&layers, "fix fixes=%d stats=%+v\n", fx.fixes, fx.stats)
	}

	// lru: the page string at main-memory capacity.
	lruNS, lruHit, hits, lrefs := replayLRU(base.Buffer.BufferSize, nodeTxs)
	b.set("lru.op_ns", lruNS, "ns")
	b.set("lru.hit_pct", lruHit, "%")
	fmt.Fprintf(&layers, "lru hits=%d refs=%d\n", hits, lrefs)

	// cc: the Result's counts, then the Acquire/ReleaseAll replay.
	locks := r.Locks
	b.set("cc.requests_per_commit", float64(locks.Requests)/commits, "count")
	b.set("cc.conflict_pct", pct(locks.Conflicts, locks.Requests), "%")
	b.set("cc.deadlocks", float64(locks.Deadlocks), "count")
	ccr, err := replayCC(allTxs, base.CCModes, inFlight(r))
	if err != nil {
		return err
	}
	b.set("cc.acquire_ns", ccr.ns, "ns")
	b.set("cc.replay_conflict_pct", pct(ccr.conflicts, ccr.requests), "%")
	fmt.Fprintf(&layers, "cc inflight=%d requests=%d conflicts=%d deadlocks=%d\n",
		inFlight(r), ccr.requests, ccr.conflicts, ccr.deadlock)

	// storage: simulated device activity.
	var ios int64
	var diskUtil, ctrlUtil float64
	for _, u := range r.Units {
		ios += u.Stats.Reads + u.Stats.Writes
		diskUtil = max(diskUtil, u.DiskUtilization)
		ctrlUtil = max(ctrlUtil, u.CtrlUtilization)
	}
	b.set("storage.ios_per_commit", float64(ios)/commits, "count")
	b.set("storage.disk_util", diskUtil, "frac")
	b.set("storage.ctrl_util", ctrlUtil, "frac")
	b.set("storage.nvem_util", r.NVEMUtil, "frac")

	// sim: the kernel with the workload's resident population.
	b.set("sim.event_ns", driveKernel(population(base), b.o.seed), "ns")

	fp := fingerprint{Report: sha(b.refReport), Layers: sha(layers.String())}
	if b.o.record {
		b.expected = fp
		return nil
	}
	if b.haveFP {
		b.attempted++
		if fp.Layers != b.expected.Layers {
			b.failed++
			b.fail("per-layer counts sha256 %s, expected %s", fp.Layers, b.expected.Layers)
		}
	}
	return nil
}
