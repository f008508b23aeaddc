package main

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dope"
	"dope/internal/apps"
)

// The pipeline workloads run a ferret-shaped six-stage ChannelPipeline:
// SEQ load, four PAR stages, SEQ out. Each body does pipeUnits of native
// apps.Burn work, small on purpose: with no mechanism, no collector and no
// reconfiguration, the per-item cost is then mostly the runtime path
// (queue hop, Begin/End, the context token pool, the head's receive),
// which is what pipeline-batch exists to measure. Larger bodies would
// bury that path in body time and in its run-to-run swing.
const (
	pipeStages   = 6
	pipeUnits    = 100
	pipeContexts = 8
	// srcCap bounds the closed-loop feed: the generator can run at most
	// this far ahead of the head stage, so latency reflects the pipeline,
	// not a backlog.
	srcCap = 64
	// ringSize items are recycled by id; it is far above the most items
	// the pipeline can hold (srcCap + 5 queues of 8 + one per worker).
	ringSize = 1024
	// setupReps is how many times each run builds and starts the
	// executive; setup_s is their median.
	setupReps = 21
	// spanEvery samples one item in spanEvery for stage spans.
	spanEvery = 64
	// pipeWindows is how many windows a measured phase is cut into.
	pipeWindows = 10
	// churnEvery is reconfig-churn's SetConfig period.
	churnEvery = 2 * time.Millisecond
)

var pipeNames = [pipeStages]string{"load", "segment", "extract", "vectorize", "rank", "out"}

// pipeStatic is pipeline-batch's pinned configuration.
func pipeStatic() *dope.Config { return &dope.Config{Alt: 0, Extents: []int{1, 2, 2, 2, 2, 1}} }

// churnCycle is reconfig-churn's fixed SetConfig cycle from pipeStatic:
// an extent-only change (in-place resize), a switch to the fused
// alternative (suspend, drain, resume), an extent-only change of the fused
// stage, and a switch back.
var churnCycle = []*dope.Config{
	{Alt: 0, Extents: []int{1, 1, 2, 1, 2, 1}},
	{Alt: 1, Extents: []int{2}},
	{Alt: 1, Extents: []int{4}},
	pipeStatic(),
}

var pipelineBatch = workload{
	params: map[string]string{
		"shape": "ChannelPipeline SEQ,PAR,PAR,PAR,PAR,SEQ (Fused declared, unused)", "config": "[1,2,2,2,2,1] static",
		"contexts": strconv.Itoa(pipeContexts), "burn_units_per_stage": strconv.Itoa(pipeUnits),
		"feed": "closed loop, source channel cap " + strconv.Itoa(srcCap), "setup_reps": strconv.Itoa(setupReps),
	},
	run: func(seed int64, d time.Duration, traced bool) ([]metric, *outcome, error) {
		return runPipelineWorkload("pipeline-batch", seed, d, traced, false)
	},
}

var reconfigChurn = workload{
	params: map[string]string{
		"shape": "as pipeline-batch", "contexts": strconv.Itoa(pipeContexts),
		"burn_units_per_stage": strconv.Itoa(pipeUnits),
		"churn":                "SetConfig every 2ms: [1,1,2,1,2,1] -> fused[2] -> fused[4] -> [1,2,2,2,2,1]",
		"feed":                 "closed loop, source channel cap " + strconv.Itoa(srcCap), "setup_reps": strconv.Itoa(setupReps),
	},
	run: func(seed int64, d time.Duration, traced bool) ([]metric, *outcome, error) {
		return runPipelineWorkload("reconfig-churn", seed, d, traced, true)
	},
}

// pipeItem is one preallocated stream item, recycled through the ring.
type pipeItem struct {
	id   uint64
	sum  uint64
	sent int64 // generator stamp taken just before the send
	// busy is set by the generator and cleared by the done path, so a
	// slot is never refilled while its item is still in flight.
	busy atomic.Bool
	// Traced phase only.
	lastExit int64
	fused    bool
	span     int32
}

// burnRef is apps.Burn(pipeUnits): the kernel is deterministic, so the
// sequential reference checksum folds this constant per stage.
var burnRef = apps.Burn(pipeUnits)

// pipeRef is the checksum item id must leave the last stage with: the
// stage bodies applied back to back, in order, once each.
func pipeRef(seed uint64) func(uint64) uint64 {
	return func(id uint64) uint64 {
		sum := initialSum(seed, id)
		for s := 0; s < pipeStages; s++ {
			sum = stageSum(sum, burnRef, s)
		}
		return sum
	}
}

// pipeRun is one executive instance of a pipeline workload.
type pipeRun struct {
	seed       uint64
	src        chan *pipeItem
	ring       []pipeItem
	led        *ledger
	tr         *tracer // nil in an untraced phase
	d          *dope.DoPE
	accepted   chan struct{}
	acceptOnce sync.Once
	acceptedAt int64
}

func (r *pipeRun) accept() {
	r.acceptOnce.Do(func() {
		r.acceptedAt = now()
		close(r.accepted)
	})
}

func (r *pipeRun) stages() []dope.PipeStage[*pipeItem] {
	st := make([]dope.PipeStage[*pipeItem], pipeStages)
	for s := range st {
		s := s
		fn := func(it *pipeItem, _ int) *pipeItem {
			if s == 0 && it.id == 0 {
				r.accept()
			}
			it.sum = stageSum(it.sum, apps.Burn(pipeUnits), s)
			return it
		}
		if tr := r.tr; tr != nil {
			fn = func(it *pipeItem, extent int) *pipeItem {
				t0 := now()
				if s == 0 {
					if it.id == 0 {
						r.accept()
					}
					tr.headWait.record(t0 - it.sent)
					// The pipeline's head is SEQ (extent 1); only the
					// fused alternative runs stage 0 wider. Fused items
					// pass between stages without a queue, so they add no
					// hop samples.
					it.fused = extent > 1
				} else if !it.fused {
					tr.hop.record(t0 - it.lastExit)
				}
				it.sum = stageSum(it.sum, apps.Burn(pipeUnits), s)
				t1 := now()
				tr.body.record(t1 - t0)
				if it.span >= 0 {
					tr.spans.close(tr.spans.open(spanStage, it.id, it.span, t0), t1)
				}
				it.lastExit = t1
				return it
			}
		}
		st[s] = dope.PipeStage[*pipeItem]{Name: pipeNames[s], Par: s > 0 && s < pipeStages-1, Fn: fn}
	}
	return st
}

func (r *pipeRun) done(it *pipeItem) {
	t := now()
	r.led.complete(it.id, it.sum, it.sent, t)
	if r.tr != nil && it.span >= 0 {
		r.tr.spans.close(it.span, t)
	}
	it.busy.Store(false)
}

// send fills ring slot id%ringSize with item id and sends it, waiting for
// the slot's previous item to complete. It reports false if that never
// happens (an item lost inside the executive), so the feed stops instead
// of hanging; the ledger then counts the loss.
func (r *pipeRun) send(id uint64) bool {
	it := &r.ring[id%ringSize]
	for spins := 0; it.busy.Load(); spins++ {
		if spins > 1<<20 {
			return false
		}
		runtime.Gosched()
	}
	it.busy.Store(true)
	it.id, it.sum, it.span = id, initialSum(r.seed, id), -1
	if r.tr != nil && id%spanEvery == 0 {
		it.span = r.tr.spans.open(spanItem, id, -1, now())
	}
	it.sent = now()
	if id == 0 {
		r.led.start(it.sent)
	}
	r.src <- it
	return true
}

// setupPipeline builds and starts one executive and sends item 0, timing
// everything from the spec build until the head stage accepts that item.
func setupPipeline(seed uint64, led *ledger, tr *tracer) (*pipeRun, time.Duration, error) {
	r := &pipeRun{
		seed: seed, src: make(chan *pipeItem, srcCap), ring: make([]pipeItem, ringSize),
		led: led, tr: tr, accepted: make(chan struct{}),
	}
	t0 := now()
	spec := dope.ChannelPipeline("ferret", r.src, r.stages(), r.done, dope.PipelineOptions{Fused: true})
	opts := []dope.Option{dope.WithInitialConfig(pipeStatic())}
	if tr != nil {
		opts = append(opts, tr.options(pipeContexts)...)
	}
	d, err := dope.Create(spec, dope.StaticGoal(pipeContexts), opts...)
	if err != nil {
		return nil, 0, err
	}
	r.d = d
	if tr != nil {
		tr.exec.Store(d.Exec)
	}
	r.send(0)
	select {
	case <-r.accepted:
	case <-time.After(10 * time.Second):
		d.Stop()
		return nil, 0, fmt.Errorf("pipeline set-up: %w", errTimeout)
	}
	return r, time.Duration(r.acceptedAt - t0), nil
}

// pipelinePhase runs reps set-ups (all but the last torn down at once) and
// then feeds the last executive for d, cycling churnCycle when churn.
func pipelinePhase(seed uint64, d time.Duration, reps int, churn bool, tr *tracer) (*outcome, error) {
	o := &outcome{}
	for i := 0; i < reps-1; i++ {
		r, dur, err := setupPipeline(seed, newLedger(64, pipeRef(seed), 0, 0), nil)
		if err != nil {
			return nil, err
		}
		o.setups = append(o.setups, dur)
		close(r.src)
		if err := r.d.Destroy(); err != nil {
			return nil, err
		}
	}
	// The ledger tracks ids up to 2M items per measured second, well above
	// what two CPUs reach; the feed stops at that cap regardless.
	winLen := d / pipeWindows
	led := newLedger(int(d.Seconds()*2e6)+ringSize, pipeRef(seed), pipeWindows, winLen)
	o.led = led
	runtime.GC()
	r, dur, err := setupPipeline(seed, led, tr)
	if err != nil {
		return nil, err
	}
	o.setups = append(o.setups, dur)
	o.firstSubmit = r.ring[0].sent
	mk := newMarker(o.firstSubmit, winLen, pipeWindows, false)
	mk.poll(now())
	stop := make(chan struct{})
	var bg sync.WaitGroup
	if churn {
		bg.Add(1)
		go func() {
			defer bg.Done()
			tick := time.NewTicker(churnEvery)
			defer tick.Stop()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				t0 := now()
				r.d.SetConfig(churnCycle[k%len(churnCycle)])
				if tr != nil {
					tr.setConfig.record(now() - t0)
				}
			}
		}()
	}
	if tr != nil {
		wait := tr.sampler(r.d.Exec, 10*time.Millisecond, stop)
		bg.Add(1)
		go func() { defer bg.Done(); wait() }()
	}
	id := uint64(1)
	for ; id < uint64(led.capacity()); id++ {
		if id%64 == 0 {
			t := now()
			mk.poll(t)
			if t >= mk.end() {
				break
			}
		}
		if !r.send(id) {
			break
		}
	}
	o.submitted = int(id)
	o.marks = mk.marks
	close(stop)
	bg.Wait()
	close(r.src)
	o.err = r.d.Destroy()
	if tr != nil {
		tr.finish(r.d.Exec)
	}
	return o, nil
}

// seqItemsPerSec runs the same stage bodies back to back in one goroutine
// for d and returns items per second: the single-threaded baseline.
func seqItemsPerSec(seed uint64, d time.Duration) (float64, error) {
	ref := pipeRef(seed)
	stages := (&pipeRun{}).stages()
	var it pipeItem
	start := now()
	n := uint64(1) // item 0 is the set-up probe in the live runs
	for ; now()-start < int64(d); n++ {
		it.id, it.sum = n, initialSum(seed, n)
		for _, st := range stages {
			st.Fn(&it, 1)
		}
		if it.sum != ref(n) {
			return 0, fmt.Errorf("sequential baseline: item %d checksum %x, want %x", n, it.sum, ref(n))
		}
	}
	return float64(n-1) / (float64(now()-start) / 1e9), nil
}

func runPipelineWorkload(name string, seed int64, d time.Duration, traced, churn bool) ([]metric, *outcome, error) {
	s := uint64(seed)
	if !traced {
		o, err := pipelinePhase(s, d, setupReps, churn, nil)
		if err != nil {
			return nil, nil, err
		}
		return endToEnd(o), o, nil
	}
	// Traced run: an untraced half, then a traced half, so the tracing
	// overhead is the difference between two halves of the same run.
	half := d / 2
	base, err := pipelinePhase(s, half, 1, churn, nil)
	if err != nil {
		return nil, nil, err
	}
	seq, err := seqItemsPerSec(s, min(time.Second, d/10))
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer(int(half.Seconds()*4e5/spanEvery*(pipeStages+1)) + 1024)
	o, err := pipelinePhase(s, half, 1, churn, tr)
	if err != nil {
		return nil, nil, err
	}
	tr.phaseDone(base, o, seq)
	if err := saveSpans(name, tr.spans); err != nil {
		return nil, nil, err
	}
	if !base.correct() {
		return tr.layerMetrics(), base, nil
	}
	return tr.layerMetrics(), o, nil
}
