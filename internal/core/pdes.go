package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cc"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Conservative parallel discrete-event simulation of a cluster run.
//
// Each node becomes one logical process with its own kernel, disk units and
// NVEM; the only interactions that cross node boundaries — global
// lock-manager traffic, write-invalidate coherence, shared-NVEM-cache
// probes and destages, and crash rerouting — already pay a message latency
// in the model: LockMsgDelayMS for lock traffic and rerouting,
// NVEMAccessDelayMS for coherence traffic against a shared NVEM cache. The
// smaller of the two is the lookahead: every kernel can safely run
// [T, T+lookahead] without seeing its peers, because anything a peer sends
// during that window arrives strictly after T+lookahead's window began. The
// coordinator therefore alternates two steps: deliver all messages whose
// arrival falls inside the next window (sorted by (arrive, sender,
// sender-sequence)), then run every kernel to the window's end, one after
// the other. The kernels of a window do not see each other, so they could
// run in parallel, but a worker pool doing so was slower than this loop at
// every window size measured (DESIGN.md §12).
//
// Determinism contract: a PDES run's per-node Results depend on the seed
// and the configuration only, because cross-node state is only touched at
// barriers, in sorted order, on the coordinator. PDES is not event-for-
// event identical to the coupled single-kernel mode — the coupled mode
// resolves lock verdicts, invalidations and shared-cache probes
// instantaneously at shared state, which has zero lookahead by
// construction.

// PDESConfig switches a cluster run to the conservative parallel engine.
type PDESConfig struct {
	Enabled bool `json:"-"`
	// Workers is validated and otherwise ignored: every window runs on
	// the calling goroutine (DESIGN.md §12). It stays so that
	// configurations which set it keep loading, and Results are
	// identical for every value.
	Workers int
}

// validate checks the parallel-engine description.
func (p *PDESConfig) validate() error {
	if p.Workers < 0 {
		return fmt.Errorf("core: PDES Workers = %d", p.Workers)
	}
	return nil
}

// pdesMsgKind tags one cross-node message.
type pdesMsgKind uint8

const (
	pdesLockReq pdesMsgKind = iota
	pdesLockRelease
	pdesInvalidate
	pdesReroute
	pdesNVEMProbe
	pdesNVEMPut
)

// pdesMsg is one cross-node event in flight: sent by node from's logical
// process during a window, applied by the coordinator at the barrier
// preceding the window its arrival time falls into. seq is a per-sender
// sequence number; (arrive, from, seq) totally orders every batch.
type pdesMsg struct {
	kind   pdesMsgKind
	from   int
	seq    uint64
	arrive sim.Time

	// Lock traffic.
	txn  cc.TxnID
	g    cc.Granule
	mode cc.Mode
	k    func(bool)

	// Coherence / shared-cache traffic.
	key   storage.PageKey
	dirty bool
	nk    func(hit, dirty bool)

	// Rerouted arrival.
	tx workload.Tx
}

// pdesState is the coordinator of a PDES cluster run: the per-node
// kernels and the in-flight messages.
type pdesState struct {
	c         *cluster
	kernels   []*sim.Sim
	lookahead sim.Time

	// lockDelay is the latency of lock-manager and reroute messages;
	// cohDelay the latency of coherence traffic (invalidations and shared-
	// NVEM-cache probes/destages). Without a shared cache both equal the
	// lookahead; with one, lookahead = min(lockDelay, cohDelay), so every
	// message still arrives at or after the next window's start.
	lockDelay sim.Time
	cohDelay  sim.Time

	// outboxes[i] collects node i's messages during a window; only node
	// i's logical process appends, so windows need no message locking.
	// Slices are reused across windows.
	outboxes [][]pdesMsg
	seqs     []uint64
	inbox    []pdesMsg // reusable merge buffer, coordinator-only

	// pending counts queued messages across all outboxes, so an empty
	// barrier skips the merge entirely (O(1) instead of sweeping every
	// outbox per window).
	pending int

	// msgTime is the arrival instant of the message currently being
	// applied at a barrier. Grant callbacks fired by the global lock
	// manager during a release read it to timestamp the wakeup.
	msgTime sim.Time

	// The in-flight invalidation table (deliverInvalidate). The
	// coordinator publishes and expires entries at barriers only; during a
	// window it is read-only except that node i's kernel may clear
	// seqs[i] of any entry. flight lists entries in arrival order,
	// flightIdx maps a page to its newest entry, flightFree recycles them.
	flight     []*invalFlight
	flightIdx  map[storage.PageKey]*invalFlight
	flightFree []*invalFlight
}

// newPDES builds the per-node kernels. lookahead must be positive — it is
// the resolved message latency floor of the cluster.
func newPDES(c *cluster, numNodes int, lookahead sim.Time) *pdesState {
	pd := &pdesState{
		c:         c,
		lookahead: lookahead,
		lockDelay: lookahead,
		cohDelay:  lookahead,
		kernels:   make([]*sim.Sim, numNodes),
		outboxes:  make([][]pdesMsg, numNodes),
		seqs:      make([]uint64, numNodes),
		flightIdx: make(map[storage.PageKey]*invalFlight),
	}
	for i := range pd.kernels {
		pd.kernels[i] = sim.New()
	}
	return pd
}

// run drives the phase schedule: windows of one lookahead, a message
// barrier before each. Phase transitions (window snapshot, crash
// injection) run on the coordinator at their exact boundary — every kernel
// sits precisely at the boundary then, because sim.Run lands the clock on
// its horizon even when a kernel drains early.
func (pd *pdesState) run(steps []phaseStep) {
	now := sim.Time(0)
	for _, st := range steps {
		for now < st.at {
			w := now + pd.lookahead
			if w > st.at {
				w = st.at
			}
			pd.deliver(now)
			for _, k := range pd.kernels {
				k.Run(w)
			}
			now = w
		}
		if st.run != nil {
			st.run()
		}
	}
}

// send queues one message from its sender's logical process. Called only
// from the sending node's kernel (or from the coordinator at a barrier,
// e.g. crash-time lock releases).
func (pd *pdesState) send(m pdesMsg) {
	pd.seqs[m.from]++
	m.seq = pd.seqs[m.from]
	pd.outboxes[m.from] = append(pd.outboxes[m.from], m)
	pd.pending++
}

// sendLockReq ships a lock request to the global lock manager; the verdict
// materializes at the message's arrival.
func (pd *pdesState) sendLockReq(e *node, txn cc.TxnID, g cc.Granule, mode cc.Mode, k func(bool)) {
	pd.send(pdesMsg{kind: pdesLockReq, from: e.id, arrive: e.s.Now() + pd.lockDelay,
		txn: txn, g: g, mode: mode, k: k})
}

// sendLockRelease ships a one-way release of every lock txn holds.
func (pd *pdesState) sendLockRelease(e *node, txn cc.TxnID) {
	pd.send(pdesMsg{kind: pdesLockRelease, from: e.id, arrive: e.s.Now() + pd.lockDelay, txn: txn})
}

// sendInvalidate ships a write-invalidation for key to every peer.
func (pd *pdesState) sendInvalidate(e *node, key storage.PageKey) {
	pd.send(pdesMsg{kind: pdesInvalidate, from: e.id, arrive: e.s.Now() + pd.cohDelay, key: key})
}

// sendReroute ships an arrival that hit a non-running node to the
// coordinator; the reconnect decision needs cluster-wide state (survivor
// phases, queue lengths) and is taken at the barrier.
func (pd *pdesState) sendReroute(e *node, tx workload.Tx) {
	pd.send(pdesMsg{kind: pdesReroute, from: e.id, arrive: e.s.Now() + pd.lockDelay, tx: tx})
}

// sendNVEMProbe ships a shared-NVEM-cache lookup; the verdict (and, under
// NOFORCE, the promoted copy's dirty bit) materializes at the message's
// arrival on the requesting node.
func (pd *pdesState) sendNVEMProbe(e *node, key storage.PageKey, nk func(hit, dirty bool)) {
	pd.send(pdesMsg{kind: pdesNVEMProbe, from: e.id, arrive: e.s.Now() + pd.cohDelay, key: key, nk: nk})
}

// sendNVEMPut ships a one-way page insert into the shared NVEM cache
// (victim migration, FORCE destage, or a coherence hand-off).
func (pd *pdesState) sendNVEMPut(e *node, key storage.PageKey, dirty bool) {
	pd.send(pdesMsg{kind: pdesNVEMPut, from: e.id, arrive: e.s.Now() + pd.cohDelay, key: key, dirty: dirty})
}

// deliver merges every outbox and applies the batch in (arrive, from, seq)
// order at the barrier at now. No arrival precedes now: a message
// sent during a window travels at least one lookahead, and windows are at
// most one lookahead wide. When no node sent anything the barrier is
// empty and the merge is skipped outright.
func (pd *pdesState) deliver(now sim.Time) {
	pd.expireInvalidations(now)
	if pd.pending == 0 {
		return
	}
	pd.pending = 0
	batch := pd.inbox[:0]
	for i := range pd.outboxes {
		batch = append(batch, pd.outboxes[i]...)
		pd.outboxes[i] = pd.outboxes[i][:0]
	}
	slices.SortFunc(batch, comparePDESMsg)
	for i := range batch {
		pd.dispatch(&batch[i])
	}
	for i := range batch {
		batch[i] = pdesMsg{} // drop closure references before reuse
	}
	pd.inbox = batch[:0]
}

// comparePDESMsg orders a barrier batch by (arrive, from, seq). The key is
// unique per message, so the order is total and the unstable sort is
// deterministic.
func comparePDESMsg(a, b pdesMsg) int {
	if c := cmp.Compare(a.arrive, b.arrive); c != 0 {
		return c
	}
	if c := cmp.Compare(a.from, b.from); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// dispatch applies one message on the coordinator.
func (pd *pdesState) dispatch(m *pdesMsg) {
	c := pd.c
	pd.msgTime = m.arrive
	switch m.kind {
	case pdesLockReq:
		e := c.nodes[m.from]
		if c.trackActive {
			// The sender crashed while the request was in flight: the
			// transaction is dead and its locks already released; the
			// request must not reach the manager (see acquireLock).
			if _, alive := e.active[m.txn]; !alive {
				return
			}
		}
		k := m.k
		switch c.glocks.AcquireFrom(m.from, m.txn, m.g, m.mode) {
		case cc.Granted:
			e.s.Schedule(m.arrive-e.s.Now(), func() { k(true) })
		case cc.Wait:
			// Registered here, not via a kernel event: a release in the
			// same batch may grant this transaction before its kernel
			// runs again, and the grant must find the waiter.
			start := m.arrive
			e.waiting[m.txn] = func() {
				if e.warm {
					s := start
					if s < e.warmStartTime {
						s = e.warmStartTime
					}
					e.lockWait.Add(e.s.Now() - s)
				}
				k(true)
			}
		default: // cc.Deadlock
			e.s.Schedule(m.arrive-e.s.Now(), func() { k(false) })
		}
	case pdesLockRelease:
		// Grant cascades fire c.glocks' callback synchronously; the PDES
		// branch of onLockGrant timestamps them with msgTime.
		c.glocks.ReleaseAllFrom(m.from, m.txn)
	case pdesInvalidate:
		pd.deliverInvalidate(m)
	case pdesReroute:
		// Same decision chain as the coupled rerouter (admitArrival),
		// taken at the barrier where survivor state is coherent. Drops
		// and sheds count against the node whose arrival it was.
		e := c.nodes[m.from]
		target := c.reroute()
		switch {
		case target == nil:
			if e.warm {
				e.dropped++
			}
		case c.shedReroute(target):
			if e.warm {
				e.shed++
			}
		case target.mpl.QueueLen() >= target.cfg.MaxQueue:
			if e.warm {
				e.dropped++
			}
		default:
			target.startTxAt(m.arrive-target.s.Now(), m.tx, nil)
		}
	case pdesNVEMProbe:
		// Shared-cache lookup on the requester's behalf. The cache is
		// examined (and, under NOFORCE, the copy removed) here at the
		// barrier in arrival order — equivalent to examining it at the
		// arrival instant, because every shared-cache mutation happens at
		// barriers in the same total order. The verdict reaches the
		// requesting kernel at the arrival instant.
		e := c.nodes[m.from]
		hit, dirty := e.bm.ApplySharedProbe(m.key)
		nk := m.nk
		e.s.Schedule(m.arrive-e.s.Now(), func() { nk(hit, dirty) })
	case pdesNVEMPut:
		// One-way insert; an evicted deferred-dirty frame destages on the
		// sender's (quiescent) kernel, mirroring the coupled mode where
		// whoever's Put triggers the eviction pays the destage.
		c.nodes[m.from].bm.ApplySharedPut(m.key, m.dirty)
	}
}

// pdesNVEMBus routes one node's shared-NVEM-cache operations over the
// message layer; it implements buffer.RemoteNVEMCache.
type pdesNVEMBus struct {
	pd *pdesState
	e  *node
}

func (b *pdesNVEMBus) Probe(key storage.PageKey, k func(hit, dirty bool)) {
	b.pd.sendNVEMProbe(b.e, key, k)
}

func (b *pdesNVEMBus) Put(key storage.PageKey, dirty bool) {
	b.pd.sendNVEMPut(b.e, key, dirty)
}

// Write-invalidate delivery. An invalidation does nothing on a peer that
// holds no copy of the page when it arrives (buffer.Manager.Holds), and
// about 99 % of peers hold none, so it is scheduled only where it can act.
// A peer holds the page at the arrival instant exactly when it holds it at
// the barrier, or loads it between the barrier and the arrival. The first
// case is scheduled here; the second is published in the in-flight table
// and scheduled by the peer itself as it loads the page (onLoad). Each
// peer's slot in its kernel's (at, seq) order is reserved here for both
// cases, so every delivery that happens runs exactly where a delivery to
// every peer would have run, and every other event keeps its sequence
// number: pop order is unchanged by construction (DESIGN.md §12).

// invalFlight is one published invalidation of key, arriving at at.
// seqs[i] is node i's reserved sequence number, or 0 when node i has
// nothing pending: it is the sender, it was sent the delivery at the
// barrier, or it has scheduled the delivery itself since.
type invalFlight struct {
	key   storage.PageKey
	at    sim.Time
	seqs  []uint64
	older *invalFlight // previous in-flight invalidation of key
}

// deliverInvalidate applies one invalidation message at the barrier.
func (pd *pdesState) deliverInvalidate(m *pdesMsg) {
	var f *invalFlight
	for _, n := range pd.c.nodes {
		if n.id == m.from {
			continue
		}
		sl := n.s.Reserve(m.arrive - n.s.Now())
		if n.bm.Holds(m.key) {
			n.s.ScheduleSlot(sl, n.invalidation(m.key))
			continue
		}
		if f == nil {
			f = pd.publish(m.key, sl.At)
		}
		f.seqs[n.id] = sl.Seq
	}
}

// publish appends an in-flight entry for key arriving at at.
func (pd *pdesState) publish(key storage.PageKey, at sim.Time) *invalFlight {
	var f *invalFlight
	if n := len(pd.flightFree); n > 0 {
		f = pd.flightFree[n-1]
		pd.flightFree = pd.flightFree[:n-1]
	} else {
		f = &invalFlight{seqs: make([]uint64, len(pd.kernels))}
	}
	f.key, f.at = key, at
	f.older = pd.flightIdx[key]
	pd.flightIdx[key] = f
	pd.flight = append(pd.flight, f)
	return f
}

// expireInvalidations drops the entries whose arrival is at or before the
// barrier at now: every kernel has run past them, so no load can precede
// them any more. Entries stay longer than one window when the coherence
// latency exceeds the lookahead.
func (pd *pdesState) expireInvalidations(now sim.Time) {
	done := 0
	for done < len(pd.flight) && pd.flight[done].at <= now {
		f := pd.flight[done]
		done++
		// f is the oldest entry of its key: unhook it from the chain.
		if head := pd.flightIdx[f.key]; head == f {
			delete(pd.flightIdx, f.key)
		} else {
			for head.older != f {
				head = head.older
			}
			head.older = nil
		}
		f.older = nil
		clear(f.seqs)
		pd.flightFree = append(pd.flightFree, f)
	}
	if done > 0 {
		n := copy(pd.flight, pd.flight[done:])
		clear(pd.flight[n:])
		pd.flight = pd.flight[:n]
	}
}

// onLoad runs on node e's kernel as key becomes resident there: any
// invalidation of key still in flight to e is scheduled in its reserved
// slot. A slot the running event has already passed fired (as a no-op)
// before the load, and stays unscheduled.
func (pd *pdesState) onLoad(e *node, key storage.PageKey) {
	if len(pd.flightIdx) == 0 {
		return
	}
	for f := pd.flightIdx[key]; f != nil; f = f.older {
		sl := sim.Slot{At: f.at, Seq: f.seqs[e.id]}
		if sl.Seq == 0 || !e.s.Ahead(sl) {
			continue
		}
		f.seqs[e.id] = 0
		e.s.ScheduleSlot(sl, e.invalidation(key))
	}
}

// invalDelivery is one invalidation scheduled on a node's kernel: a pooled
// record with its continuation bound once (DESIGN.md §13), on the node's
// own freelist — the coordinator takes records only at barriers, the
// node's kernel during windows.
type invalDelivery struct {
	n    *node
	key  storage.PageKey
	step func()
	next *invalDelivery
}

// invalidation returns the continuation of a pooled delivery of key.
func (n *node) invalidation(key storage.PageKey) func() {
	d := n.freeInval
	if d == nil {
		d = &invalDelivery{n: n}
		d.step = d.run
	} else {
		n.freeInval = d.next
		d.next = nil
	}
	d.key = key
	return d.step
}

func (d *invalDelivery) run() {
	n, key := d.n, d.key
	if poolPoison {
		d.key = storage.PageKey{Partition: -1, Page: -1}
	}
	d.next = n.freeInval
	n.freeInval = d
	n.invalidate(key)
}
