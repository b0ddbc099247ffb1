package sim_test

// The blocking shim's own tests live in the external test package so they
// can import simtest, which imports sim.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

func TestBlockingProcessHold(t *testing.T) {
	s := sim.New()
	var marks []sim.Time
	simtest.SpawnBlocking(s, "holder", 0, func(b *simtest.BlockingProcess) {
		marks = append(marks, b.Now())
		b.Hold(10)
		marks = append(marks, b.Now())
		b.Hold(5)
		marks = append(marks, b.Now())
	})
	s.RunAll()
	want := []sim.Time{0, 10, 15}
	if fmt.Sprint(marks) != fmt.Sprint(want) {
		t.Fatalf("marks = %v, want %v", marks, want)
	}
}

func TestBlockingProcessSynchronousAwait(t *testing.T) {
	// An Await whose operation completes without suspending must continue
	// the body inline, without consuming a heap event.
	s := sim.New()
	ran := false
	simtest.SpawnBlocking(s, "sync", 0, func(b *simtest.BlockingProcess) {
		b.Await(func(done func()) { done() })
		ran = true
		if b.Now() != 0 {
			t.Errorf("now = %v, want 0", b.Now())
		}
	})
	s.RunAll()
	if !ran {
		t.Fatal("body did not complete")
	}
}

func TestBlockingProcessInterleavesDeterministically(t *testing.T) {
	// Blocking bodies and continuation processes must share one timeline:
	// equal-time events fire in scheduling order regardless of style.
	s := sim.New()
	var order []string
	simtest.SpawnBlocking(s, "b", 1, func(b *simtest.BlockingProcess) {
		order = append(order, "b0")
		b.Hold(1)
		order = append(order, "b1")
	})
	s.Spawn("c", 1, func(p *sim.Process) {
		order = append(order, "c0")
		p.Hold(1, func() { order = append(order, "c1") })
	})
	s.RunAll()
	if got := strings.Join(order, ","); got != "b0,c0,b1,c1" {
		t.Fatalf("order = %q, want b0,c0,b1,c1", got)
	}
}

func TestBlockingProcessResource(t *testing.T) {
	s := sim.New()
	r := s.NewResource("dev", 1)
	var finish []sim.Time
	for i := 0; i < 3; i++ {
		simtest.SpawnBlocking(s, "job", 0, func(b *simtest.BlockingProcess) {
			b.Use(r, 10)
			finish = append(finish, b.Now())
		})
	}
	s.RunAll()
	if fmt.Sprint(finish) != fmt.Sprint([]sim.Time{10, 20, 30}) {
		t.Fatalf("finish = %v", finish)
	}
}
