// barrierseam.go carries a file-scoped allow, the mechanism a
// concurrency seam outside the whitelist uses: a //detlint:allow before
// the package clause covers every goroutine and multi-case select in the
// file, so none of the spawns below may produce a diagnostic — while the
// identical unannotated pool in rawgo.go still trips the gate.
//
//detlint:allow rawgo fixture twin of the PDES barrier pool; workers are claimed exclusively per window and quiescence is observed before cross-goroutine reads
package rawgo

func seamPool(workers int, park []chan struct{}) {
	for w := 1; w < workers; w++ {
		go seamWorker(park[w])
	}
}

func seamWorker(park chan struct{}) {
	for range park {
	}
}

func seamMultiplex(wake, stop chan struct{}) bool {
	select {
	case <-wake:
		return true
	case <-stop:
		return false
	}
}
