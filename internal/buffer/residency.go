package buffer

import "repro/internal/storage"

// residency is the manager's page-residency filter: a fixed-size array of
// counters, one per hash slot, counting the pages in main memory plus the
// private NVEM cache that hash there (a page in both counts twice). A zero
// slot proves that no page hashing to it is resident, so the filter has no
// false negatives; a nonzero slot is only a hint, settled by probing the
// caches themselves (Holds). Write-invalidate coherence asks this question
// of every peer for every remote write, and almost always about a page the
// peer does not hold — the filter answers that case without a map lookup.
//
// Counting rather than a dense bitset keeps the size proportional to the
// caches rather than the database: a bit per database page would cost
// 5M ACCOUNT pages × 256 nodes ≈ 160 MB, while four slots per frame cost
// a few KB per node and leave about one slot in five occupied. A query
// reads only a one-bit-per-slot summary of the counters (32 times smaller
// than them), because a coordinator asks it of every node in turn and
// the summaries of a whole cluster stay in cache where the counters would
// not.
type residency struct {
	counts  []uint32
	nonzero []uint64 // bit i set exactly when counts[i] != 0
	shift   uint8
}

// newResidency sizes the filter for up to frames resident pages.
func newResidency(frames int) residency {
	bits := uint8(0)
	for 1<<bits < 4*frames {
		bits++
	}
	slots := 1 << bits
	return residency{
		counts:  make([]uint32, slots),
		nonzero: make([]uint64, (slots+63)/64),
		shift:   64 - bits,
	}
}

// slot hashes key (Fibonacci hashing on the page number, partition in the
// top byte).
func (r *residency) slot(key storage.PageKey) uint64 {
	h := (uint64(key.Page) ^ uint64(key.Partition)<<56) * 0x9e3779b97f4a7c15
	return h >> r.shift
}

func (r *residency) add(key storage.PageKey) {
	i := r.slot(key)
	if r.counts[i] == 0 {
		r.nonzero[i/64] |= 1 << (i % 64)
	}
	r.counts[i]++
}

func (r *residency) drop(key storage.PageKey) {
	i := r.slot(key)
	r.counts[i]--
	if r.counts[i] == 0 {
		r.nonzero[i/64] &^= 1 << (i % 64)
	}
}

// mayHold is false only when key is certainly not resident.
func (r *residency) mayHold(key storage.PageKey) bool {
	i := r.slot(key)
	return r.nonzero[i/64]&(1<<(i%64)) != 0
}

// Holds reports whether this node holds a copy of key that a remote write
// would invalidate: a main-memory frame or a private NVEM-cache frame (a
// cluster-shared cache copy is the global version and is never
// invalidated). It is exact; the filter only spares the cache probes for
// pages that are certainly absent.
func (m *Manager) Holds(key storage.PageKey) bool {
	if !m.res.mayHold(key) {
		return false
	}
	if _, ok := m.mm.Peek(key); ok {
		return true
	}
	if m.privateNVEM() {
		_, ok := m.nvemCache.Peek(key)
		return ok
	}
	return false
}

// SetLoadHook registers fn to run whenever a page becomes resident in main
// memory or the private NVEM cache (a frame registration on a fix, or a
// private-cache insert). The parallel cluster engine uses it to deliver
// write-invalidations that were in flight when the page was absent.
func (m *Manager) SetLoadHook(fn func(storage.PageKey)) { m.onLoad = fn }

// privateNVEM reports whether the manager operates a node-private NVEM
// cache, whose copies count as resident.
func (m *Manager) privateNVEM() bool { return m.nvemCache != nil && !m.sharedNVEM }

// loaded records that key became resident.
func (m *Manager) loaded(key storage.PageKey) {
	m.res.add(key)
	if m.onLoad != nil {
		m.onLoad(key)
	}
}

// mmPut registers a frame for key, which must not be in main memory.
func (m *Manager) mmPut(key storage.PageKey, f frame) {
	m.mm.Put(key, f)
	m.loaded(key)
}

// mmRemove drops key's main-memory frame, which must exist.
func (m *Manager) mmRemove(key storage.PageKey) {
	m.mm.Remove(key)
	m.res.drop(key)
}

// nvemRemove removes key from the NVEM cache the manager operates on
// (private or coupled-shared), keeping the filter in step for a private
// one.
func (m *Manager) nvemRemove(key storage.PageKey) (nvemFrame, bool) {
	f, ok := m.nvemCache.Remove(key)
	if ok && !m.sharedNVEM {
		m.res.drop(key)
	}
	return f, ok
}
