package main

import (
	"testing"
	"time"
)

// Short runs of each workload, untraced and traced, must check out: every
// item exactly once with its reference checksum. Under -race this also
// covers the fused alternative's concurrent done path and the tracer.
func TestWorkloadsCheckOut(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the live executive")
	}
	const d = 400 * time.Millisecond
	for _, churn := range []bool{false, true} {
		for _, tr := range []*tracer{nil, newTracer(1 << 16)} {
			o, err := pipelinePhase(5, d, 2, churn, tr)
			if err != nil {
				t.Fatal(err)
			}
			if !o.correct() || o.windowItems() == 0 {
				t.Errorf("pipeline churn=%v traced=%v: %d submitted, %d ok, dup %d, bad %d, err %v",
					churn, tr != nil, o.submitted, o.led.good.Load(), o.led.dup.Load(), o.led.bad.Load(), o.err)
			}
			if churn && tr != nil && (tr.suspends == 0 || tr.drain.count() == 0) {
				t.Errorf("churn made %d suspensions and %d drain samples", tr.suspends, tr.drain.count())
			}
		}
	}
	for _, tr := range []*tracer{nil, newTracer(1 << 16)} {
		o, _, err := serverPhase(5, d, 2, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !o.correct() || o.windowItems() == 0 {
			t.Errorf("server traced=%v: %d submitted, %d ok, err %v", tr != nil, o.submitted, o.led.good.Load(), o.err)
		}
		if tr != nil && (tr.decisions.Load() == 0 || tr.beginEnd.count() == 0) {
			t.Errorf("traced server saw %d decisions, %d Begin/End windows", tr.decisions.Load(), tr.beginEnd.count())
		}
	}
}

func TestSequentialBaselineMatchesReference(t *testing.T) {
	if _, err := seqItemsPerSec(4, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}
