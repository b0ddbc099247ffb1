package sim

import (
	"fmt"
	"strings"
	"testing"
)

func TestScheduleRunsInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	s.RunAll()
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 3 {
		t.Fatalf("now = %v", s.Now())
	}
}

func TestRunStopsAtUntil(t *testing.T) {
	s := New()
	fired := 0
	s.Schedule(1, func() { fired++ })
	s.Schedule(5, func() { fired++ })
	s.Schedule(10, func() { fired++ })
	s.Run(5)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (events at t<=5)", fired)
	}
	if s.Now() != 5 {
		t.Fatalf("now = %v, want 5", s.Now())
	}
	s.Run(100)
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	s.Schedule(-1, func() {})
}

func TestProcessHold(t *testing.T) {
	s := New()
	var marks []Time
	s.Spawn("holder", 0, func(p *Process) {
		marks = append(marks, p.Now())
		p.Hold(10, func() {
			marks = append(marks, p.Now())
			p.Hold(5, func() {
				marks = append(marks, p.Now())
			})
		})
	})
	s.RunAll()
	want := []Time{0, 10, 15}
	if len(marks) != len(want) {
		t.Fatalf("marks = %v, want %v", marks, want)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestNegativeHoldPanics(t *testing.T) {
	s := New()
	s.Spawn("bad", 0, func(p *Process) { p.Hold(-1, func() {}) })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative hold")
		}
	}()
	s.RunAll()
}

func TestSpawnDelay(t *testing.T) {
	s := New()
	var started Time = -1
	s.Spawn("late", 7, func(p *Process) { started = p.Now() })
	s.RunAll()
	if started != 7 {
		t.Fatalf("started = %v, want 7", started)
	}
}

func TestPassivateActivate(t *testing.T) {
	s := New()
	var woke Time = -1
	sleeper := s.Spawn("sleeper", 0, func(p *Process) {
		p.Passivate(func() { woke = p.Now() })
	})
	s.Spawn("waker", 5, func(p *Process) {
		s.Activate(sleeper, 2)
	})
	s.RunAll()
	if woke != 7 {
		t.Fatalf("woke = %v, want 7", woke)
	}
	if sleeper.Passive() {
		t.Fatal("sleeper still passive after activation")
	}
}

func TestActivateNonPassivePanics(t *testing.T) {
	s := New()
	p := s.Spawn("idle", 0, func(p *Process) { p.Hold(100, func() {}) })
	s.Run(50) // p is now holding (continuation scheduled), not passive
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic activating a non-passive process")
		}
	}()
	s.Activate(p, 0)
}

func TestDoublePassivatePanics(t *testing.T) {
	s := New()
	s.Spawn("greedy", 0, func(p *Process) {
		p.Passivate(func() {})
		p.Passivate(func() {})
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on second Passivate")
		}
	}()
	s.RunAll()
}

func TestEqualTimeProcessesRunInSpawnOrder(t *testing.T) {
	s := New()
	var order []string
	for _, name := range []string{"a", "b", "c", "d"} {
		name := name
		s.Spawn(name, 1, func(p *Process) { order = append(order, name) })
	}
	s.RunAll()
	if got := strings.Join(order, ""); got != "abcd" {
		t.Fatalf("order = %q", got)
	}
}

func TestShutdownDropsPendingEvents(t *testing.T) {
	s := New()
	fired := 0
	for i := 0; i < 5; i++ {
		s.Spawn("p", 0, func(p *Process) {
			p.Hold(100, func() { fired++ })
		})
	}
	s.Run(10)
	if s.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", s.Pending())
	}
	s.Shutdown()
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after shutdown", s.Pending())
	}
	s.RunAll()
	if fired != 0 {
		t.Fatalf("fired = %d: continuations must not survive Shutdown", fired)
	}
}

func TestShutdownWithNeverStartedProcess(t *testing.T) {
	s := New()
	s.Spawn("never", 1000, func(p *Process) { t.Error("body must not run") })
	s.Run(1) // before first activation
	s.Shutdown()
	s.RunAll()
}

func TestProcessPanicSurfacesInRun(t *testing.T) {
	s := New()
	s.Spawn("bomb", 1, func(p *Process) { panic("boom") })
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "boom") {
			t.Fatalf("recover = %v, want panic containing boom", r)
		}
	}()
	s.RunAll()
}

// Determinism: two identical simulations visit events in exactly the same
// order and produce the same trace.
func TestDeterminism(t *testing.T) {
	build := func() string {
		var log []string
		s := New()
		for i := 0; i < 10; i++ {
			i := i
			s.Spawn(fmt.Sprintf("w%d", i), Time(i%3), func(p *Process) {
				j := 0
				var step func()
				step = func() {
					if j >= 4 {
						return
					}
					d := Time((i*7+j*3)%5) + 0.5
					j++
					p.Hold(d, func() {
						log = append(log, fmt.Sprintf("%s@%.1f", p.Name(), p.Now()))
						step()
					})
				}
				step()
			})
		}
		s.RunAll()
		return strings.Join(log, ",")
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("runs diverged:\n%s\n%s", a, b)
	}
}

func TestProcessIdentity(t *testing.T) {
	s := New()
	p := s.Spawn("named", 0, func(p *Process) {})
	if p.Name() != "named" || p.ID() != 1 || p.Sim() != s {
		t.Fatalf("identity wrong: %q %d", p.Name(), p.ID())
	}
	q := s.Spawn("second", 0, func(p *Process) {})
	if q.ID() != 2 {
		t.Fatalf("second id = %d", q.ID())
	}
	s.RunAll()
}

func TestNestedSpawn(t *testing.T) {
	s := New()
	var childTime Time = -1
	s.Spawn("parent", 0, func(p *Process) {
		p.Hold(3, func() {
			s.Spawn("child", 2, func(c *Process) { childTime = c.Now() })
			p.Hold(10, func() {})
		})
	})
	s.RunAll()
	if childTime != 5 {
		t.Fatalf("child ran at %v, want 5", childTime)
	}
}

// TestReservedSlotKeepsScheduleOrder: an event scheduled late into a slot
// reserved earlier pops exactly where Schedule at reservation time would
// have put it, ahead of equal-time events scheduled in between, and both
// queue kinds agree.
func TestReservedSlotKeepsScheduleOrder(t *testing.T) {
	for _, kind := range []QueueKind{QueueCalendar, QueueHeap} {
		run := func(deferred bool) string {
			s := NewWithQueue(kind)
			var order []string
			mark := func(name string) func() { return func() { order = append(order, name) } }
			s.Schedule(5, mark("a"))
			var sl Slot
			if deferred {
				sl = s.Reserve(5)
			} else {
				s.Schedule(5, mark("x"))
			}
			s.Schedule(5, mark("b"))
			s.Schedule(2, func() {
				s.Schedule(3, mark("c"))
				if deferred {
					if !s.Ahead(sl) {
						t.Errorf("slot (%v, %d) not ahead at %v", sl.At, sl.Seq, s.Now())
					}
					s.ScheduleSlot(sl, mark("x"))
				}
			})
			s.RunAll()
			if deferred && s.Ahead(sl) {
				t.Errorf("slot still ahead after it fired")
			}
			return strings.Join(order, "")
		}
		if got, want := run(true), run(false); got != want || want != "axbc" {
			t.Fatalf("queue %d: reserved slot order %q, Schedule order %q, want axbc", kind, got, want)
		}
	}
}

func TestScheduleSlotPassedPanics(t *testing.T) {
	s := New()
	sl := s.Reserve(1)
	s.Schedule(2, func() {})
	s.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into a passed slot must panic")
		}
	}()
	s.ScheduleSlot(sl, func() {})
}
