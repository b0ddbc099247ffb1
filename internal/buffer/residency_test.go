package buffer

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim/simtest"
	"repro/internal/storage"
)

// residencyOp is one step of a random buffer-manager schedule.
type residencyOp struct {
	Kind  uint8
	Page  uint8
	Write bool
}

// checkResidency compares the filter against the caches it summarizes:
// every slot must count exactly the resident pages hashing to it (so no
// resident page reads as absent), and Holds must agree with mm.Peek ∪ the
// private-cache Peek for every page of the universe.
func checkResidency(m *Manager, pages int) error {
	want := make([]uint32, len(m.res.counts))
	m.mm.Each(func(k storage.PageKey, _ frame) bool {
		want[m.res.slot(k)]++
		return true
	})
	if m.privateNVEM() {
		m.nvemCache.Each(func(k storage.PageKey, _ nvemFrame) bool {
			want[m.res.slot(k)]++
			return true
		})
	}
	for i := range want {
		if want[i] != m.res.counts[i] {
			return fmt.Errorf("slot %d counts %d resident pages, want %d", i, m.res.counts[i], want[i])
		}
		if bit := m.res.nonzero[i/64]>>(i%64)&1 == 1; bit != (want[i] != 0) {
			return fmt.Errorf("slot %d summary bit %v with %d resident pages", i, bit, want[i])
		}
	}
	for p := 0; p < pages; p++ {
		k := key(0, int64(p))
		_, inMM := m.mm.Peek(k)
		inNVEM := false
		if m.privateNVEM() {
			_, inNVEM = m.nvemCache.Peek(k)
		}
		if resident := inMM || inNVEM; m.Holds(k) != resident || (resident && !m.res.mayHold(k)) {
			return fmt.Errorf("page %d: Holds %v, mayHold %v, resident %v", p, m.Holds(k), m.res.mayHold(k), resident)
		}
	}
	return nil
}

// TestResidencyFilterProperty drives random overlapping fixes (read and
// write), FORCE commits, invalidations and crashes through managers with
// and without a private NVEM cache — so pages migrate, promote, evict and
// destage — and checks the filter after every operation and on every load.
func TestResidencyFilterProperty(t *testing.T) {
	const pages = 12
	cached := func(mode MigrateMode, force, deferred bool) Config {
		return Config{
			BufferSize: 3, Force: force, NVEMDeferredDestage: deferred, NVEMCacheSize: 4,
			Partitions: []PartitionAlloc{{DiskUnit: 0, NVEMCache: true, NVEMCacheMode: mode}},
			Log:        LogAlloc{DiskUnit: 0},
		}
	}
	mmOnly := baseCfg()
	mmOnly.Force = true
	configs := []struct {
		name string
		mk   func() *rig
	}{
		{"noforce-private", func() *rig { return newRig(t, cached(MigrateAll, false, false)) }},
		{"noforce-private-deferred", func() *rig { return newRig(t, cached(MigrateModified, false, true)) }},
		{"noforce-unmodified", func() *rig { return newRig(t, cached(MigrateUnmodified, false, true)) }},
		{"force-private", func() *rig { return newRig(t, cached(MigrateAll, true, false)) }},
		{"force-private-deferred", func() *rig { return newRig(t, cached(MigrateAll, true, true)) }},
		{"force-mm-only", func() *rig { return newRig(t, mmOnly) }},
		{"remote-shared", func() *rig { return newRemoteRig(t, cached(MigrateAll, false, true), 4) }},
		{"coupled-shared", func() *rig {
			s, m, _, _ := twoNodeRig(t, 3, 4)
			return &rig{s: s, m: m}
		}},
	}
	for _, cfg := range configs {
		mk := cfg.mk
		t.Run(cfg.name, func(t *testing.T) {
			f := func(ops []residencyOp) bool {
				r := mk()
				var err error
				note := func(e error) {
					if err == nil && e != nil {
						err = e
					}
				}
				r.m.SetLoadHook(func(storage.PageKey) { note(checkResidency(r.m, pages)) })
				for i, op := range ops {
					k := key(0, int64(op.Page%pages))
					// Ops start 0.3 ms apart against ~16 ms device reads, so
					// fetches, migrations and destages overlap.
					r.s.Schedule(float64(i)*0.3, func() {
						p := r.s.NewProcess("op")
						switch op.Kind % 8 {
						case 6:
							r.m.Invalidate(k)
						case 7:
							r.m.Crash()
						default:
							write := op.Write
							r.m.Fix(p, k, write, func() {
								note(checkResidency(r.m, pages))
								if write {
									r.m.ForcePages(p, []storage.PageKey{k}, func() {
										note(checkResidency(r.m, pages))
									})
								}
							})
						}
						note(checkResidency(r.m, pages))
					})
				}
				r.s.RunAll()
				note(checkResidency(r.m, pages))
				if err != nil {
					t.Log(err)
				}
				return err == nil
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestInvalidateSkipsAbsentPages: a page the filter rules out costs
// Invalidate nothing, and one it admits is still checked exactly.
func TestInvalidateSkipsAbsentPages(t *testing.T) {
	r := newRig(t, baseCfg())
	r.drive(func(b *simtest.BlockingProcess) { fixB(b, r.m, key(0, 1), true) })
	if had, dirty := r.m.Invalidate(key(0, 2)); had || dirty {
		t.Fatal("invalidating an absent page reported a copy")
	}
	if had, dirty := r.m.Invalidate(key(0, 1)); !had || !dirty {
		t.Fatal("dirty resident page not invalidated")
	}
	if r.m.Holds(key(0, 1)) || r.m.res.mayHold(key(0, 1)) {
		t.Fatal("invalidated page still counted resident")
	}
}
