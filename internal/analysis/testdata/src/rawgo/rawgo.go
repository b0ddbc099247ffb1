// Package rawgo is the fixture for the rawgo rule: raw concurrency is
// confined to the whitelisted seams; sim code runs single-threaded
// continuation style.
package rawgo

func spawn(done chan struct{}) {
	go func() {}() // want `rawgo: go statement outside the whitelisted concurrency seams`
	<-done
}

func spawnNamed() {
	go helper() // want `rawgo: go statement outside the whitelisted concurrency seams`
}

func helper() {}

func multiplex(a, b chan int) int {
	select { // want `rawgo: multi-case select outside the whitelisted concurrency seams`
	case x := <-a:
		return x
	case x := <-b:
		return x
	}
}

func singleCaseOK(a chan int) int {
	// A one-armed select is just a blocking op; only multiplexing is
	// scheduler-ordered.
	select {
	case x := <-a:
		return x
	}
}

func allowedInline(done chan struct{}) {
	//detlint:allow rawgo bounded test-script shim; joined before any metric is read
	go func() { close(done) }()
	<-done
}

// unannotatedBarrier mimics a persistent per-window worker pool WITHOUT
// the file-scoped allow that barrierseam.go carries: spawning the pool
// must trip the
// gate — moving the pool out of a whitelisted seam file is not a way to
// dodge the determinism contract.
func unannotatedBarrier(workers int, park []chan struct{}) {
	for w := 1; w < workers; w++ {
		go barrierWorker(park[w]) // want `rawgo: go statement outside the whitelisted concurrency seams`
	}
}

func barrierWorker(park chan struct{}) {
	for range park {
	}
}
