package faults

import (
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dope/internal/core"
	"dope/internal/queue"
)

func scheduleFor(rate float64, seed uint64, stage string, n int) []uint64 {
	in := New(rate, seed)
	var out []uint64
	for i := uint64(1); i <= uint64(n); i++ {
		if in.shouldFault(stage, i) {
			out = append(out, i)
		}
	}
	return out
}

func TestScheduleDeterministic(t *testing.T) {
	a := scheduleFor(0.05, 42, "rank", 10000)
	b := scheduleFor(0.05, 42, "rank", 10000)
	if len(a) == 0 {
		t.Fatal("5% rate selected nothing in 10k calls")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestScheduleVariesWithSeedAndStage(t *testing.T) {
	base := scheduleFor(0.05, 42, "rank", 10000)
	otherSeed := scheduleFor(0.05, 43, "rank", 10000)
	otherStage := scheduleFor(0.05, 42, "seg", 10000)
	same := func(a, b []uint64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if same(base, otherSeed) {
		t.Fatal("different seeds produced the same schedule")
	}
	if same(base, otherStage) {
		t.Fatal("different stages produced the same schedule")
	}
}

func TestRateIsHonored(t *testing.T) {
	const n = 200000
	for _, rate := range []float64{0.01, 0.1, 0.5} {
		got := float64(len(scheduleFor(rate, 7, "s", n))) / n
		if math.Abs(got-rate) > rate*0.2 {
			t.Errorf("rate %.2f: observed %.4f", rate, got)
		}
	}
	if len(scheduleFor(0, 7, "s", 1000)) != 0 {
		t.Error("zero rate injected")
	}
	if len(scheduleFor(1, 7, "s", 1000)) != 1000 {
		t.Error("unit rate skipped calls")
	}
}

func TestRateClamped(t *testing.T) {
	if New(-0.5, 1).rate != 0 || New(1.5, 1).rate != 1 {
		t.Fatal("rate not clamped to [0,1]")
	}
}

func TestWrapPanicsWithFaultValue(t *testing.T) {
	in := New(1, 1) // every call faults
	fns := in.wrap("s", core.StageFns{Fn: func(w *core.Worker) core.Status {
		t.Error("functor body ran despite injection")
		return core.Finished
	}})
	defer func() {
		r := recover()
		f, ok := r.(*Fault)
		if !ok {
			t.Fatalf("recovered %T, want *Fault", r)
		}
		if f.Stage != "s" || f.Call != 1 {
			t.Fatalf("fault = %+v", f)
		}
		if !strings.Contains(f.Error(), `stage "s"`) {
			t.Fatalf("fault error = %q", f.Error())
		}
	}()
	fns.Fn(nil)
}

func TestDelayKindStallsInsteadOfPanicking(t *testing.T) {
	in := New(1, 1, WithKind(Delay), WithDelay(10*time.Millisecond))
	ran := false
	fns := in.wrap("s", core.StageFns{Fn: func(w *core.Worker) core.Status {
		ran = true
		return core.Finished
	}})
	start := time.Now()
	if got := fns.Fn(nil); got != core.Finished {
		t.Fatalf("status = %v", got)
	}
	if !ran {
		t.Fatal("delayed functor never ran")
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("delay fault stalled only %v", d)
	}
	if in.Injected() != 1 || in.Calls() != 1 {
		t.Fatalf("counters = %d/%d", in.Injected(), in.Calls())
	}
	if Delay.String() != "delay" || Panic.String() != "panic" {
		t.Fatal("kind names wrong")
	}
}

// drainSpec is a one-stage PAR nest consuming work.
func drainSpec(work *queue.Queue[int], processed *atomic.Int64) *core.NestSpec {
	return &core.NestSpec{Name: "app", Alts: []*core.AltSpec{{
		Name:   "doall",
		Stages: []core.StageSpec{{Name: "worker", Type: core.PAR, OnFailure: core.FailRestart}},
		Make: func(item any) (*core.AltInstance, error) {
			return &core.AltInstance{Stages: []core.StageFns{{
				Fn: func(w *core.Worker) core.Status {
					v, ok, err := work.DequeueWhile(func() bool { return !w.Suspending() }, 0)
					if errors.Is(err, queue.ErrClosed) {
						return core.Finished
					}
					if !ok {
						return core.Suspended
					}
					w.Begin() //dopevet:ignore suspendcheck suspension is observed via the DequeueWhile predicate
					_ = v
					processed.Add(1)
					w.End()
					return core.Executing
				},
			}}}, nil
		},
	}}}
}

func TestWrapNestEndToEnd(t *testing.T) {
	work := queue.New[int](0)
	var processed atomic.Int64
	spec := drainSpec(work, &processed)
	in := New(0.1, 99)
	in.WrapNest(spec)

	// Items are microseconds of work, so ~30 injected faults land within
	// one rolling window; raise the budget so FailRestart never escalates.
	e, err := core.New(spec, core.WithContexts(2),
		core.WithFailureBudget(1000, time.Second),
		core.WithRestartBackoff(50*time.Microsecond, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	const items = 300
	for i := 0; i < items; i++ {
		work.Enqueue(i)
	}
	work.Close()
	if err := e.Run(); err != nil {
		t.Fatalf("run under injection failed: %v", err)
	}
	if in.Injected() == 0 {
		t.Fatal("no faults injected at 10% over 300 items")
	}
	if in.Calls() == 0 {
		t.Fatal("injector saw no calls")
	}
	if e.TaskFailures() != in.Injected() {
		t.Fatalf("executive absorbed %d failures, injector reports %d",
			e.TaskFailures(), in.Injected())
	}
	// An injected panic fires before the dequeue, so no work is lost under
	// FailRestart: all items processed.
	if processed.Load() != items {
		t.Fatalf("processed = %d, want %d", processed.Load(), items)
	}
}

func TestWrapAltOnlyFilters(t *testing.T) {
	alt := &core.AltSpec{
		Name: "a",
		Stages: []core.StageSpec{
			{Name: "safe", Type: core.SEQ},
			{Name: "victim", Type: core.SEQ},
		},
		Make: func(item any) (*core.AltInstance, error) {
			mk := func() core.StageFns {
				return core.StageFns{Fn: func(w *core.Worker) core.Status { return core.Finished }}
			}
			return &core.AltInstance{Stages: []core.StageFns{mk(), mk()}}, nil
		},
	}
	in := New(1, 1)
	in.wrapAlt(alt, "victim")
	inst, err := alt.Make(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := inst.Stages[0].Fn(nil); got != core.Finished {
		t.Fatalf("safe stage faulted or misbehaved: %v", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("victim stage did not fault")
			}
		}()
		inst.Stages[1].Fn(nil)
	}()
}
