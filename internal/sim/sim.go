// Package sim provides a deterministic process-oriented discrete-event
// simulation kernel. It replaces the DeNet simulation language the paper's
// TPSIM system was written in.
//
// The kernel is continuation-based: every blocking operation (Hold, resource
// acquisition, passivation) returns control to the scheduler by enqueuing a
// continuation on the time-ordered event heap instead of parking a
// goroutine. Everything runs on the kernel's own stack, so there are no
// channel hand-offs, no context switches and no cross-goroutine panic
// plumbing on the hot path. Simulations are fully deterministic — events
// with equal timestamps fire in scheduling order, and all randomness comes
// from explicitly seeded generators outside this package.
package sim

import "fmt"

// Time is simulated time. TPSIM models express it in milliseconds.
type Time = float64

// Sim is a discrete-event simulation instance. It is not safe for concurrent
// use; all interaction must happen from the goroutine that calls Run or from
// within event continuations (which the kernel serializes).
type Sim struct {
	now    Time
	events eventQueue
	seq    uint64
	cur    uint64 // seq of the event running now (or the last one run)

	nextPID int
}

// eventQueue is the pending-event set behind a Sim. Both implementations
// order strictly by (at, seq), which is the kernel's determinism contract:
// any two queues fed the same pushes produce the same pop sequence.
type eventQueue interface {
	Len() int
	Push(event)
	// Peek and Pop return the (at, seq)-minimum; they must not be called
	// on an empty queue.
	Peek() event
	Pop() event
	Clear()
}

// QueueKind selects the event-queue implementation backing a Sim.
type QueueKind int

const (
	// QueueCalendar is the default: a calendar queue with O(1) amortized
	// operations and a heap-backed far-future overflow band.
	QueueCalendar QueueKind = iota
	// QueueHeap is the plain binary heap — O(log n), kept as the
	// reference implementation for differential tests.
	QueueHeap
)

// New creates an empty simulation at time zero, backed by the calendar
// queue.
func New() *Sim { return NewWithQueue(QueueCalendar) }

// NewWithQueue creates an empty simulation at time zero backed by the given
// event-queue implementation. Both kinds honor the same (at, seq) ordering
// contract, so the choice affects performance only.
func NewWithQueue(kind QueueKind) *Sim {
	if kind == QueueHeap {
		return &Sim{events: &eventHeap{}}
	}
	return &Sim{events: newCalQueue()}
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Pending reports the number of scheduled events (including process
// continuations).
func (s *Sim) Pending() int { return s.events.Len() }

// Schedule runs fn in kernel context at now+delay. delay must be
// non-negative. fn must not block; activity that takes simulated time is
// expressed by scheduling a continuation for the remainder.
func (s *Sim) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	s.seq++
	s.events.Push(event{at: s.now + delay, seq: s.seq, fn: fn})
}

// Slot is a position in a kernel's (at, seq) event order.
type Slot struct {
	At  Time
	Seq uint64
}

// Reserve claims the slot an event scheduled now with the given delay
// would occupy, without queueing anything: the sequence counter advances
// exactly as Schedule's would. A caller that may or may not need the event
// later reserves its slot now, so every event scheduled in between keeps
// the sequence number it would have had, and ScheduleSlot can still place
// the event where Schedule would have put it.
func (s *Sim) Reserve(delay Time) Slot {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	s.seq++
	return Slot{At: s.now + delay, Seq: s.seq}
}

// ScheduleSlot runs fn at a slot obtained from Reserve. The slot must
// still be ahead of the running event (see Ahead), and must be used at
// most once.
func (s *Sim) ScheduleSlot(sl Slot, fn func()) {
	if !s.Ahead(sl) {
		panic(fmt.Sprintf("sim: slot (%v, %d) already passed at (%v, %d)", sl.At, sl.Seq, s.now, s.cur))
	}
	s.events.Push(event{at: sl.At, seq: sl.Seq, fn: fn})
}

// Ahead reports whether an event at sl would still fire, i.e. whether sl
// orders after the event running now.
func (s *Sim) Ahead(sl Slot) bool {
	return sl.At > s.now || (sl.At == s.now && sl.Seq > s.cur)
}

// scheduleRelease schedules fn at now+delay with r released first at fire
// time — the allocation-free backbone of Resource.Use.
func (s *Sim) scheduleRelease(r *Resource, delay Time, fn func()) {
	s.seq++
	s.events.Push(event{at: s.now + delay, seq: s.seq, fn: fn, release: r})
}

// Run executes events until the event queue is empty or the next event
// would fire after the until timestamp. It returns the simulated time at
// which it stopped. Events exactly at until still fire. The clock always
// lands on until (never before, never after): draining the queue early
// advances now to until just as the next-event-too-late exit does, so
// window-length math via Now() stays exact either way.
func (s *Sim) Run(until Time) Time {
	for s.events.Len() > 0 {
		if s.events.Peek().at > until {
			s.now = until
			return s.now
		}
		ev := s.events.Pop()
		s.now, s.cur = ev.at, ev.seq
		if ev.release != nil {
			ev.release.Release()
		}
		ev.fn()
	}
	if s.now < until {
		s.now = until
	}
	return s.now
}

// RunAll executes events until none remain.
func (s *Sim) RunAll() Time {
	for s.events.Len() > 0 {
		ev := s.events.Pop()
		s.now, s.cur = ev.at, ev.seq
		if ev.release != nil {
			ev.release.Release()
		}
		ev.fn()
	}
	return s.now
}

// Shutdown drops all pending events: suspended processes and queued
// continuations are abandoned where they stand. After Shutdown the
// simulation can be inspected but no longer advanced.
func (s *Sim) Shutdown() {
	s.events.Clear()
}
