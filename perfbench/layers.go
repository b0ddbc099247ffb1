package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/buffer"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/lru"
	"repro/internal/sim"
	"repro/internal/storage"
)

// The replays below time one layer at a time through its public
// functions, fed with the references the workload's own generators
// produced during a traced engine call.

// zeroHost is the benchmark's buffer.Host: it charges no CPU time, so a
// replay pays only for the buffer manager and the devices it drives.
type zeroHost struct {
	s    *sim.Sim
	nvem *storage.NVEM
}

func (h *zeroHost) IOOverhead(_ *sim.Process, k func())                     { k() }
func (h *zeroHost) SyncDeviceIO(_ *sim.Process, dev func(func()), k func()) { dev(k) }
func (h *zeroHost) SpawnAsync(name string, fn func(*sim.Process))           { h.s.Spawn(name, 0, fn) }
func (h *zeroHost) Sim() *sim.Sim                                           { return h.s }
func (h *zeroHost) NVEMTransfer(p *sim.Process, k func()) {
	if h.nvem != nil {
		h.nvem.Access(p, k)
		return
	}
	k()
}

// newHost builds a kernel with the configuration's devices.
func newHost(cfg *core.Config, seed int64) (*zeroHost, []*storage.DiskUnit, error) {
	h := &zeroHost{s: sim.New()}
	units := make([]*storage.DiskUnit, len(cfg.DiskUnits))
	for i, uc := range cfg.DiskUnits {
		u, err := storage.NewDiskUnit(h.s, uc, newStream(seed, "unit-"+uc.Name))
		if err != nil {
			return nil, nil, err
		}
		units[i] = u
	}
	if cfg.Buffer.UsesNVEM() {
		n, err := storage.NewNVEM(h.s, cfg.NVEMServers, cfg.NVEMDelay)
		if err != nil {
			return nil, nil, err
		}
		h.nvem = n
	}
	return h, units, nil
}

func partitionNames(cfg *core.Config) []string {
	names := make([]string, len(cfg.Partitions))
	for i := range cfg.Partitions {
		names[i] = cfg.Partitions[i].Name
	}
	return names
}

// fixReplay is the outcome of replaying references through Manager.Fix.
type fixReplay struct {
	fixes int64
	ns    float64 // host ns per Fix, including the device events it causes
	stats buffer.Stats
}

// replayFix fixes every captured reference, in order, in one buffer
// manager configured as the workload's, draining the kernel after each.
func replayFix(cfg *core.Config, txs [][]ref, seed int64) (fixReplay, error) {
	h, units, err := newHost(cfg, seed)
	if err != nil {
		return fixReplay{}, err
	}
	m, err := buffer.New(cfg.Buffer, partitionNames(cfg), units, h.nvem, h)
	if err != nil {
		return fixReplay{}, err
	}
	p := h.s.NewProcess("replay")
	var fixes int64
	t0 := time.Now()
	for _, tx := range txs {
		for _, r := range tx {
			m.Fix(p, storage.PageKey{Partition: r.partition, Page: r.page}, r.write, nop)
			h.s.RunAll()
			fixes++
		}
	}
	el := time.Since(t0)
	return fixReplay{fixes: fixes, ns: perOp(el, fixes), stats: m.Stats()}, nil
}

func nop() {}

// invalReplay is the outcome of the write-invalidate replay.
type invalReplay struct {
	fixNS, invalNS float64
	fixes, calls   int64
	useful         int64 // calls that found a main-memory copy
}

// replayInvalidate runs every node's transactions round-robin against its
// own buffer manager, all sharing one NVEM cache. At the end of each
// writing transaction every peer is told to invalidate each modified page,
// as the cluster engine does at commit.
func replayInvalidate(cfg *core.Config, nodeTxs [][][]ref, seed int64) (invalReplay, error) {
	h, units, err := newHost(cfg, seed)
	if err != nil {
		return invalReplay{}, err
	}
	shared, err := buffer.NewSharedNVEMCache(cfg.Buffer.NVEMCacheSize)
	if err != nil {
		return invalReplay{}, err
	}
	mgrs := make([]*buffer.Manager, len(nodeTxs))
	for i := range mgrs {
		if mgrs[i], err = buffer.NewShared(cfg.Buffer, partitionNames(cfg), units, h.nvem, h, shared); err != nil {
			return invalReplay{}, err
		}
	}
	p := h.s.NewProcess("replay")
	var out invalReplay
	var invalTime time.Duration
	var written []storage.PageKey
	t0 := time.Now()
	for round := 0; ; round++ {
		active := false
		for node, txs := range nodeTxs {
			if round >= len(txs) {
				continue
			}
			active = true
			written = written[:0]
			for _, r := range txs[round] {
				key := storage.PageKey{Partition: r.partition, Page: r.page}
				mgrs[node].Fix(p, key, r.write, nop)
				h.s.RunAll()
				out.fixes++
				if r.write && !containsKey(written, key) {
					written = append(written, key)
				}
			}
			if len(written) == 0 {
				continue
			}
			ti := time.Now()
			for peer, m := range mgrs {
				if peer == node {
					continue
				}
				for _, key := range written {
					if had, _ := m.Invalidate(key); had {
						out.useful++
					}
					out.calls++
				}
			}
			invalTime += time.Since(ti)
			h.s.RunAll()
		}
		if !active {
			break
		}
	}
	total := time.Since(t0)
	out.fixNS = perOp(total-invalTime, out.fixes)
	out.invalNS = perOp(invalTime, out.calls)
	return out, nil
}

func containsKey(keys []storage.PageKey, k storage.PageKey) bool {
	for _, x := range keys {
		if x == k {
			return true
		}
	}
	return false
}

// replayLRU runs each node's page string through an LRU cache of the
// main-memory buffer's capacity: a Get per reference, a Put on a miss.
func replayLRU(capacity int, nodeTxs [][][]ref) (ns, hitPct float64, hits, refs int64) {
	var el time.Duration
	for _, txs := range nodeTxs {
		c := lru.New[storage.PageKey, struct{}](capacity)
		t0 := time.Now()
		for _, tx := range txs {
			for _, r := range tx {
				key := storage.PageKey{Partition: r.partition, Page: r.page}
				if _, ok := c.Get(key); ok {
					hits++
				} else {
					c.Put(key, struct{}{})
				}
				refs++
			}
		}
		el += time.Since(t0)
	}
	return perOp(el, refs), pct(hits, refs), hits, refs
}

// ccReplay is the outcome of the lock-manager replay.
type ccReplay struct {
	ns                            float64 // host ns per Acquire, ReleaseAll amortized in
	requests, conflicts, deadlock int64
}

// inFlight is the engine's mean number of transactions in the system, by
// Little's law: throughput (tx/s) × mean response time (ms) / 1000. The
// lock replay keeps this many in flight, so hot granules conflict about as
// often as they do in the engine.
func inFlight(r *core.Result) int {
	return max(1, int(math.Round(r.Throughput*r.RespMean/1000)))
}

// replayCC drives the captured transactions through one lock manager,
// inflight at a time, round-robin one request per step. A transaction
// that must wait resumes when the manager grants its lock; one chosen as
// a deadlock victim releases its locks and is dropped.
func replayCC(txs [][]ref, modes []cc.Granularity, inflight int) (ccReplay, error) {
	type slot struct {
		id      cc.TxnID
		tx      []ref
		pos     int
		waiting bool
	}
	slots := make([]slot, inflight)
	m := cc.NewManager(func(t cc.TxnID) { slots[int(t)%len(slots)].waiting = false })
	next, attempt := 0, 0
	t0 := time.Now()
	for {
		progress, busy := false, false
		for i := range slots {
			s := &slots[i]
			if s.tx == nil {
				if next == len(txs) {
					continue
				}
				attempt++
				s.id, s.tx, s.pos = cc.TxnID(attempt*len(slots)+i), txs[next], 0
				next++
			}
			busy = true
			if s.waiting {
				continue
			}
			progress = true
			if s.pos == len(s.tx) {
				m.ReleaseAll(s.id)
				s.tx = nil
				continue
			}
			r := s.tx[s.pos]
			s.pos++
			var g cc.Granule
			switch modes[r.partition] {
			case cc.NoCC:
				continue
			case cc.ObjectLevel:
				g = cc.Granule{Partition: r.partition, ID: r.object}
			default:
				g = cc.Granule{Partition: r.partition, ID: r.page}
			}
			mode := cc.Read
			if r.write {
				mode = cc.Write
			}
			switch m.Acquire(s.id, g, mode) {
			case cc.Wait:
				s.waiting = true
			case cc.Deadlock:
				m.ReleaseAll(s.id)
				s.tx = nil
			}
		}
		if !busy {
			break
		}
		if !progress {
			return ccReplay{}, fmt.Errorf("cc replay: every transaction waits")
		}
	}
	el := time.Since(t0)
	st := m.Stats()
	return ccReplay{ns: perOp(el, st.Requests), requests: st.Requests,
		conflicts: st.Conflicts, deadlock: st.Deadlocks}, nil
}

// simEvents is the number of kernel events driveKernel fires.
const simEvents = 2_000_000

// driveKernel keeps population entities alive in one kernel, each
// rescheduling itself after an exponential delay (mean 1 ms), and returns
// host ns per event.
func driveKernel(population int, seed int64) float64 {
	s := sim.New()
	rnd := newStream(seed, "kernel")
	fired := 0
	var fire func()
	fire = func() {
		fired++
		if fired+population <= simEvents {
			s.Schedule(rnd.Exp(1), fire)
		}
	}
	for i := 0; i < population; i++ {
		s.Schedule(rnd.Exp(1), fire)
	}
	t0 := time.Now()
	s.RunAll()
	return perOp(time.Since(t0), int64(fired))
}

// population is the engine's resident set of scheduled entities on one
// kernel: the MPL transaction slots plus every device and CPU server.
func population(cfg *core.Config) int {
	n := cfg.MPL + cfg.NumCPU
	for _, u := range cfg.DiskUnits {
		n += u.NumControllers + u.NumDisks
	}
	if cfg.Buffer.UsesNVEM() {
		n += cfg.NVEMServers
	}
	return n
}

func perOp(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
