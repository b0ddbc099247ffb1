package buffer

// This file holds the multi-node data-sharing support: a cluster-shared
// NVEM second-level cache and the buffer-coherence hook the cluster
// invokes when a remote node modifies a page. The coherence rule is
// write-invalidate: before a node fixes a page for writing, every other
// node's main-memory copy is dropped; the single current version of a
// dirty copy is handed off to the shared NVEM cache (or its NVEM home /
// disk), so the writer — and any later reader — finds it there instead
// of reading a stale disk copy.

import (
	"fmt"

	"repro/internal/lru"
	"repro/internal/sim"
	"repro/internal/storage"
)

// SharedNVEMCache is an NVEM second-level database cache shared by every
// node of a data-sharing cluster: a page destaged into it by one node is
// hittable by all others. Construct it once and hand it to each node's
// manager via NewShared; the managers then operate on the one cache under
// their usual migration and destage policies.
type SharedNVEMCache struct {
	cache *lru.Cache[storage.PageKey, nvemFrame]
}

// NewSharedNVEMCache allocates the cluster-shared cache.
func NewSharedNVEMCache(frames int) (*SharedNVEMCache, error) {
	if frames <= 0 {
		return nil, fmt.Errorf("buffer: shared NVEM cache size %d", frames)
	}
	return &SharedNVEMCache{cache: lru.New[storage.PageKey, nvemFrame](frames)}, nil
}

// Len returns the number of occupied shared-cache frames.
func (c *SharedNVEMCache) Len() int { return c.cache.Len() }

// NewShared builds a node's buffer manager whose NVEM second-level cache
// is the cluster-shared cache instead of a private one. cfg still
// validates as usual (cfg.NVEMCacheSize sizes the allocation check); the
// shared cache's capacity wins. A nil shared is equivalent to New.
func NewShared(cfg Config, partitionNames []string, units []*storage.DiskUnit,
	nvem *storage.NVEM, host Host, shared *SharedNVEMCache) (*Manager, error) {
	return newManager(cfg, partitionNames, units, nvem, host, shared, nil)
}

// NewRemote builds a node's buffer manager for a parallel (PDES) cluster
// with a shared NVEM cache: every shared-cache operation travels through
// remote — a lookahead-respecting interconnect — instead of touching the
// structure, and the cluster coordinator applies it at a barrier via
// ApplySharedProbe / ApplySharedPut. shared is kept only for those entry
// points and for occupancy reporting.
func NewRemote(cfg Config, partitionNames []string, units []*storage.DiskUnit,
	nvem *storage.NVEM, host Host, shared *SharedNVEMCache, remote RemoteNVEMCache) (*Manager, error) {
	return newManager(cfg, partitionNames, units, nvem, host, shared, remote)
}

// Invalidate drops this node's copies of key because a remote node is
// about to modify the page. A private NVEM-cache copy is stale after the
// remote write and is dropped alongside the main-memory frame; a
// cluster-shared cache copy is the single global version and stays. A
// clean main-memory copy is simply discarded. A dirty copy is the only
// current version, so it is handed off before the remote write proceeds:
// into the cluster-shared NVEM cache when the partition uses it (the disk
// update then follows the cache's destage policy), back to its NVEM home
// for NVEM-resident partitions, or asynchronously to disk — never into a
// private cache, where the remote writer could not hit it. The hand-off
// transfer time is charged to this node in the background — the remote
// writer is not delayed by it. Reports whether a main-memory copy existed
// and whether it was dirty. A page the residency filter rules out costs no
// cache probe.
func (m *Manager) Invalidate(key storage.PageKey) (had, dirty bool) {
	if !m.res.mayHold(key) {
		return false, false
	}
	f, ok := m.mm.Peek(key)
	if m.nvemCache != nil && !m.sharedNVEM {
		if cf, inCache := m.nvemCache.Peek(key); inCache {
			m.nvemRemove(key)
			if cf.dirty && !(ok && f.dirty) {
				// Deferred destage left the current version here (no
				// newer dirty main-memory copy exists); it must reach
				// disk before the stale disk copy is read, paying the
				// same NVEM→MM transfer as an LRU eviction.
				m.destageFromNVEM(key)
			}
		}
	}
	if !ok {
		return false, false
	}
	m.mmRemove(key)
	if !f.dirty {
		return true, false
	}
	a := m.alloc(key.Partition)
	switch {
	case a.NVEMResident:
		// Write the current version back to its NVEM home.
		m.host.SpawnAsync("coherence-handoff", func(ap *sim.Process) {
			m.host.NVEMTransfer(ap, nop)
		})
	case a.NVEMCache && m.sharedNVEM:
		m.insertNVEM(key, true)
		if !m.cfg.NVEMDeferredDestage {
			m.startAsyncWrite(key)
		}
		m.host.SpawnAsync("coherence-handoff", func(ap *sim.Process) {
			m.host.NVEMTransfer(ap, nop)
		})
	default:
		m.startAsyncWrite(key)
	}
	return true, true
}
