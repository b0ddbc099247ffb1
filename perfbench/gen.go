package main

import (
	"time"

	"repro/internal/rng"
	"repro/internal/workload"
)

// ref is one captured object reference.
type ref struct {
	partition int
	object    int64
	page      int64
	write     bool
}

// tracedGen wraps the generator the benchmark passes to the engine. When
// capture is set it times every Next call and keeps a copy of the
// transactions; spin adds a calibrated busy-wait to every call, which the
// self-test uses to inject a known slowdown.
type tracedGen struct {
	inner   workload.Generator
	capture bool
	spin    time.Duration

	calls  int64
	nextNS int64
	txs    [][]ref
}

func (g *tracedGen) NumTypes() int                    { return g.inner.NumTypes() }
func (g *tracedGen) TypeInfo(i int) (string, float64) { return g.inner.TypeInfo(i) }

func (g *tracedGen) Next(i int, s *rng.Stream) workload.Tx {
	g.calls++
	if g.spin > 0 {
		busyWait(g.spin)
	}
	if !g.capture {
		return g.inner.Next(i, s)
	}
	t0 := time.Now()
	tx := g.inner.Next(i, s)
	g.nextNS += int64(time.Since(t0))
	refs := make([]ref, len(tx.Accesses))
	for j, a := range tx.Accesses {
		refs[j] = ref{partition: a.Partition, object: a.Object, page: a.Page, write: a.Write}
	}
	g.txs = append(g.txs, refs)
	return tx
}

func busyWait(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// wrap replaces every generator of the instance with a tracedGen.
func wrap(in *instance, capture bool, spin time.Duration) []*tracedGen {
	slots := in.generators()
	out := make([]*tracedGen, len(slots))
	for i, slot := range slots {
		out[i] = &tracedGen{inner: *slot, capture: capture, spin: spin}
		*slot = out[i]
	}
	return out
}
