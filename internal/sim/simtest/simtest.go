// Package simtest is test support for code built on the sim kernel. Its
// BlockingProcess adapts the continuation kernel back to straight-line,
// blocking process bodies, for test drivers that script long sequences of
// device operations where continuation chaining is not worth the rewrite.
//
// It is built only from the kernel's exported Process API, so the kernel
// itself stays single-threaded: the goroutine hand-off lives here, imported
// by tests and benchmarks only.
package simtest

import "repro/internal/sim"

// BlockingProcess is a process whose body runs on its own goroutine. Strict
// hand-off channels guarantee that exactly one of the kernel or the body
// executes at any instant, so determinism is preserved.
type BlockingProcess struct {
	p *sim.Process

	// Strict hand-off pair: toBody resumes the body goroutine, toKernel
	// returns control to the kernel. Both are unbuffered, so every transfer
	// is a synchronous rendezvous (and a happens-before edge for -race).
	toBody   chan struct{}
	toKernel chan struct{}
}

// SpawnBlocking creates a process of s whose body runs blocking-style on its
// own goroutine, starting after delay. The body must run to completion
// before the simulation is abandoned; a body suspended forever (e.g.
// awaiting a continuation that never fires) leaks its goroutine.
func SpawnBlocking(s *sim.Sim, name string, delay sim.Time, body func(b *BlockingProcess)) *sim.Process {
	b := &BlockingProcess{
		toBody:   make(chan struct{}),
		toKernel: make(chan struct{}),
	}
	b.p = s.Spawn(name, delay, func(p *sim.Process) {
		go func() {
			<-b.toBody
			body(b)
			b.toKernel <- struct{}{}
		}()
		b.resumeBody()
	})
	return b.p
}

// resumeBody hands control to the body goroutine and blocks the kernel until
// the body yields (parks in Await or finishes).
func (b *BlockingProcess) resumeBody() {
	b.toBody <- struct{}{}
	<-b.toKernel
}

// Proc returns the underlying kernel process, for passing to continuation
// APIs inside Await.
func (b *BlockingProcess) Proc() *sim.Process { return b.p }

// Now returns the current simulated time.
func (b *BlockingProcess) Now() sim.Time { return b.p.Now() }

// Sim returns the simulation the process belongs to.
func (b *BlockingProcess) Sim() *sim.Sim { return b.p.Sim() }

// Await runs one continuation-style operation and blocks the body until the
// operation's continuation fires. op must arrange for done to be called
// exactly once — either synchronously (no simulated delay) or from a later
// kernel event.
func (b *BlockingProcess) Await(op func(done func())) {
	sync, completed := true, false
	op(func() {
		if sync {
			// The operation completed without suspending; the body simply
			// continues.
			completed = true
			return
		}
		// Kernel context: the continuation fired in a later event. Hand
		// control back to the body until it yields again.
		b.resumeBody()
	})
	sync = false
	if completed {
		return
	}
	// The operation suspended: yield to the kernel and park until the
	// continuation resumes us.
	b.toKernel <- struct{}{}
	<-b.toBody
}

// Hold suspends the body for dt simulated time units.
func (b *BlockingProcess) Hold(dt sim.Time) {
	b.Await(func(done func()) { b.p.Hold(dt, done) })
}

// Acquire obtains one server of r blocking-style and returns the time spent
// waiting.
func (b *BlockingProcess) Acquire(r *sim.Resource) sim.Time {
	var waited sim.Time
	b.Await(func(done func()) {
		r.Acquire(b.p, func(w sim.Time) {
			waited = w
			done()
		})
	})
	return waited
}

// Use acquires a server of r, holds it for dt, and releases it.
func (b *BlockingProcess) Use(r *sim.Resource, dt sim.Time) {
	b.Await(func(done func()) { r.Use(b.p, dt, done) })
}
