package main

import (
	"slices"
	"testing"
	"time"
)

func TestPoissonSchedule(t *testing.T) {
	a := poissonSchedule(7, 1000, 10*time.Second)
	if b := poissonSchedule(7, 1000, 10*time.Second); !slices.Equal(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := poissonSchedule(8, 1000, 10*time.Second); slices.Equal(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n < 9500 || n > 10500 {
		t.Errorf("%d arrivals in 10 s at 1000/s", n)
	}
	if !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= int64(10*time.Second) {
		t.Error("due times not sorted within [0, horizon)")
	}
}

// fakeClock advances only when the generator sleeps (overshooting each
// sleep by late) or submits (taking cost).
type fakeClock struct{ t, late, cost int64 }

func (c *fakeClock) now() int64            { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t += int64(d) + c.late }
func (c *fakeClock) submitted(int, int64)  { c.t += c.cost }
func (c *fakeClock) neverStop() bool       { return false }
func newLag() *lagStats                    { return &lagStats{h: newHist()} }
func (c *fakeClock) run(base int64, due []int64, lag *lagStats, submit func(int, int64)) int {
	return runOpenLoop(base, due, c.now, c.sleep, c.neverStop, lag, submit)
}

func TestRunOpenLoopChargesLateness(t *testing.T) {
	c := &fakeClock{t: 1000, late: 50, cost: 10}
	lag := newLag()
	var gotDue []int64
	var gotAt []int64
	n := c.run(1000, []int64{100, 100, 300, 305}, lag, func(i int, due int64) {
		gotDue = append(gotDue, due)
		gotAt = append(gotAt, c.t)
		c.submitted(i, due)
	})
	if n != 4 {
		t.Fatalf("submitted %d arrivals, want 4", n)
	}
	// Arrival 0 sleeps to 1100 and wakes 50 late; arrival 1, due at the
	// same time, waits behind it for its submit cost; arrival 2 sleeps
	// again; arrival 3 is due while arrival 2 is still being submitted.
	if want := []int64{1100, 1100, 1300, 1305}; !slices.Equal(gotDue, want) {
		t.Errorf("submit saw due times %v, want absolute %v", gotDue, want)
	}
	if want := []int64{1150, 1160, 1350, 1360}; !slices.Equal(gotAt, want) {
		t.Errorf("submitted at %v, want %v", gotAt, want)
	}
	if lag.total != 50+60+50+55 || lag.h.count() != 4 {
		t.Errorf("lag total %d over %d arrivals, want 215 over 4", lag.total, lag.h.count())
	}
}

func TestRunOpenLoopNeverWaitsForTheSystem(t *testing.T) {
	// A submit that stalls for 1000 does not thin the arrivals behind it:
	// they are all submitted at once, each charged its own lateness.
	c := &fakeClock{}
	lag := newLag()
	n := c.run(0, []int64{0, 10, 20, 30}, lag, func(i int, _ int64) {
		if i == 0 {
			c.t += 1000
		}
	})
	if n != 4 || lag.total != 990+980+970 {
		t.Errorf("%d arrivals, lag total %d; want 4 and %d", n, lag.total, 990+980+970)
	}
}

func TestRunOpenLoopStops(t *testing.T) {
	c := &fakeClock{}
	calls := 0
	n := runOpenLoop(0, []int64{0, 100, 200}, c.now, c.sleep,
		func() bool { calls++; return true }, newLag(), func(int, int64) {})
	if n != 1 {
		t.Errorf("stopped after %d arrivals, want 1", n)
	}
}
