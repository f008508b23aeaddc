package main

import (
	"sync"
	"testing"
	"time"
)

func TestLedgerExactlyOnce(t *testing.T) {
	ref := pipeRef(3)
	l := newLedger(128, ref, 2, 100)
	l.start(0)
	for id := uint64(0); id < 10; id++ {
		l.complete(id, ref(id), 0, int64(id)*25)
	}
	if f := l.failed(10); f != 0 {
		t.Fatalf("%d failed after ten clean completions", f)
	}
	if a, b := l.win[0].count(), l.win[1].count(); a != 4 || b != 4 {
		t.Errorf("windows hold %d and %d completions, want 4 and 4 (the rest fall after them)", a, b)
	}
	l.complete(4, ref(4), 0, 1) // duplicate
	l.complete(10, 12345, 0, 1) // corrupted checksum
	// id 11 was submitted but never completes: lost.
	if l.dup.Load() != 1 || l.bad.Load() != 1 {
		t.Errorf("dup %d bad %d, want 1 and 1", l.dup.Load(), l.bad.Load())
	}
	if f := l.failed(12); f != 3 {
		t.Errorf("failed = %d of 12, want 3 (duplicated, corrupted, lost)", f)
	}
}

func TestChecksumCatchesStageOrder(t *testing.T) {
	ref := pipeRef(1)
	sum := initialSum(1, 42)
	for _, s := range []int{0, 1, 3, 2, 4, 5} {
		sum = stageSum(sum, burnRef, s)
	}
	if sum == ref(42) {
		t.Fatal("swapping two stages left the checksum unchanged")
	}
	if serverRef(1)(42) == serverRef(2)(42) {
		t.Fatal("server checksum ignores the seed")
	}
}

// The done path runs on PAR workers under the fused alternative, so the
// ledger must count every completion exactly once under concurrency.
func TestLedgerConcurrentComplete(t *testing.T) {
	ref := serverRef(9)
	const n = 20000
	l := newLedger(n, ref, 4, time.Hour)
	l.start(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for id := uint64(g); id < n; id += 8 {
				l.complete(id, ref(id), 0, 1)
			}
		}(g)
	}
	wg.Wait()
	if f := l.failed(n); f != 0 || l.lat.count() != n || l.win[0].count() != n {
		t.Fatalf("failed %d, latency samples %d, window samples %d; want 0, %d, %d",
			f, l.lat.count(), l.win[0].count(), n, n)
	}
}
