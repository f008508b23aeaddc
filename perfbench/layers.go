package main

import (
	"sync"
	"sync/atomic"
	"time"

	"dope"
	"dope/internal/core"
	"dope/internal/platform"
)

// epoch anchors the benchmark clock; now reads the monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// tracer collects the per-layer measurements of one traced phase. Every
// number comes from the benchmark's own files: spans and stamps around the
// calls it makes into each layer's public functions, plus the reports and
// counters those layers already export. Nothing here runs in an untraced
// phase.
type tracer struct {
	spans *spanBuf

	headWait   *hist // generator send (or due time) -> first stage entry
	hop        *hist // stage i exit -> stage i+1 entry; request enqueue -> dequeue
	body       *hist // stage body (PipeStage.Fn, inner chunk work)
	beginEnd   *hist // Worker.Begin + Worker.End call time per window
	runNest    *hist // Worker.RunNest self time (minus inner chunk work)
	report     *hist // Exec.Report
	setConfig  *hist // Exec.SetConfig
	drain      *hist // EventSuspend -> EventResume
	traceLag   *hist // Uptime at callback - Event.Time
	acquire    *hist // ContextPool.Acquire
	decide     *hist // Mechanism.Reconfigure
	snapshot   *hist // metrics.Collector.Snapshot
	occupancy  *hist // summed queue occupancy per Report sample, x1000
	sojournSum float64
	sojournN   int
	shed       uint64

	acquires, blocked   atomic.Uint64
	decisions, changed  atomic.Uint64
	events              atomic.Uint64
	mu                  sync.Mutex // guards suspendAt (trace callbacks)
	suspendAt           time.Duration
	exec                atomic.Pointer[core.Exec]
	pool                *timedPool
	collectorDropped    uint64
	reconfigs, resizes  uint64
	suspends, failures  uint64
	gcBefore, gcAfter   uint32
	itemsDone           int
	seqItemsPerSec      float64
	untracedItemsPerSec float64
	untracedP50, p50    float64
	tracedItemsPerSec   float64
	lag                 *lagStats
}

func newTracer(spanCap int) *tracer {
	return &tracer{
		spans:    newSpanBuf(spanCap),
		headWait: newHist(), hop: newHist(), body: newHist(), beginEnd: newHist(),
		runNest: newHist(), report: newHist(), setConfig: newHist(), drain: newHist(),
		traceLag: newHist(), acquire: newHist(), decide: newHist(), snapshot: newHist(),
		occupancy: newHist(),
	}
}

// onEvent is the traced phase's WithTrace callback: it measures how far
// behind emission the callback runs, and pairs each suspension with the
// resume that ends its drain.
func (t *tracer) onEvent(ev core.Event) {
	t.events.Add(1)
	if e := t.exec.Load(); e != nil {
		t.traceLag.record(int64(e.Uptime() - ev.Time))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch ev.Kind {
	case core.EventSuspend:
		t.suspendAt = ev.Time
	case core.EventResume:
		if t.suspendAt > 0 {
			t.drain.record(int64(ev.Time - t.suspendAt))
			t.suspendAt = 0
		}
	}
}

// options returns the executive options of a traced phase: the timing
// context pool and the trace callback.
func (t *tracer) options(contexts int) []dope.Option {
	t.pool = &timedPool{ContextPool: platform.NewContexts(contexts), t: t}
	return []dope.Option{dope.WithContextPool(t.pool), dope.WithTrace(t.onEvent)}
}

// sample reads one Report, timing the call, and accumulates the queue
// occupancy, sojourn and shed counts of the root nest's queue-fed stages
// (the pipeline's stages 1-5, the server's serve stage; the inner DOALL's
// load is chunks left, not a queue).
func (t *tracer) sample(e *core.Exec) {
	t0 := now()
	rep := e.Report()
	t.report.record(now() - t0)
	var occ float64
	var shed uint64
	for _, s := range rep.Root.Stages {
		if s.LoadInstances > 0 {
			occ += s.Load
		}
		if s.QueueSojourn > 0 {
			t.sojournSum += s.QueueSojourn
			t.sojournN++
		}
		shed += s.Shed
	}
	t.occupancy.record(int64(occ * 1000))
	t.shed = max(t.shed, shed)
}

// sampler calls sample every interval until stop is closed; the returned
// wait blocks until it has exited.
func (t *tracer) sampler(e *core.Exec, interval time.Duration, stop <-chan struct{}) (wait func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				t.sample(e)
			}
		}
	}()
	return func() { <-done }
}

// phaseDone records what a traced run compares across its two halves:
// base is the untraced half, o the traced one, and seq the rate of the
// same work done back to back in one goroutine.
func (t *tracer) phaseDone(base, o *outcome, seq float64) {
	t.gcBefore, t.gcAfter = o.marks[0].numGC, o.marks[len(o.marks)-1].numGC
	t.itemsDone = o.windowItems()
	t.seqItemsPerSec = seq
	t.untracedItemsPerSec, t.tracedItemsPerSec = base.itemsPerSec(), o.itemsPerSec()
	t.untracedP50, t.p50 = base.latencyP50(), o.latencyP50()
	printPhase("untraced half", base)
	printPhase("traced half", o)
}

// finish records the executive's own counters once the phase has drained.
func (t *tracer) finish(e *core.Exec) {
	t.reconfigs = e.Reconfigurations()
	t.resizes = e.Resizes()
	t.suspends = e.Suspensions()
	t.failures = e.TaskFailures()
}

// timedPool wraps the executive's context pool (passed in through
// WithContextPool) and times every Acquire. An acquire counts as blocked
// when the non-blocking attempt fails and the caller has to wait.
type timedPool struct {
	platform.ContextPool
	t *tracer
}

func (p *timedPool) Acquire() {
	t0 := now()
	p.t.acquires.Add(1)
	if !p.ContextPool.TryAcquire() {
		p.t.blocked.Add(1)
		p.ContextPool.Acquire()
	}
	p.t.acquire.record(now() - t0)
}

// timedMechanism decorates a mechanism, timing each decision and counting
// the decisions that changed the configuration.
type timedMechanism struct {
	inner core.Mechanism
	root  *core.NestSpec
	t     *tracer
}

func (m *timedMechanism) Name() string { return m.inner.Name() }

func (m *timedMechanism) Reconfigure(r *core.Report) *core.Config {
	before := r.Config.Clone()
	t0 := now()
	cfg := m.inner.Reconfigure(r)
	m.t.decide.record(now() - t0)
	m.t.decisions.Add(1)
	if cfg != nil {
		c := cfg.Clone()
		c.Normalize(m.root)
		if !c.Equal(before) {
			m.t.changed.Add(1)
		}
	}
	return cfg
}

// pct returns the q-quantile of h in the given unit divisor (1e3 for µs
// from ns), 0 when the layer saw no samples in this workload.
func pct(h *hist, q, div float64) float64 {
	if h.count() == 0 {
		return 0
	}
	if q > 0.5 {
		q, _ = tailPercentile(h.count(), q)
	}
	return h.quantile(q) / div
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics assembles the per-layer metrics of a traced run. A layer
// the workload does not exercise (no mechanism on a pipeline, no alt
// switch on the server) reports 0; README.md lists which.
func (t *tracer) layerMetrics() []metric {
	us, ns := 1e3, 1.0
	occSamples := float64(t.occupancy.count())
	var occMean float64
	if occSamples > 0 {
		occMean = t.occupancy.mean() / 1000
	}
	var sojourn float64
	if t.sojournN > 0 {
		sojourn = t.sojournSum / float64(t.sojournN) * 1e6
	}
	var meanOcc float64
	if t.pool != nil {
		meanOcc = t.pool.MeanOccupancy()
	}
	var lagP99, lagTotal float64
	if t.lag != nil {
		lagP99 = pct(t.lag.h, 0.99, us)
		lagTotal = float64(t.lag.total) / 1e6
	}
	return []metric{
		{"dope.head_wait_us_p50", "us", pct(t.headWait, 0.5, us), false},
		{"dope.head_wait_us_p99", "us", pct(t.headWait, 0.99, us), false},
		{"dope.vs_sequential", "1", ratio(t.untracedItemsPerSec, t.seqItemsPerSec), false},
		{"queue.hop_us_p50", "us", pct(t.hop, 0.5, us), false},
		{"queue.hop_us_p99", "us", pct(t.hop, 0.99, us), false},
		{"queue.occupancy_mean", "items", occMean, false},
		{"queue.sojourn_us", "us", sojourn, false},
		{"queue.shed", "count", float64(t.shed), false},
		{"core.body_us_p50", "us", pct(t.body, 0.5, us), false},
		{"core.body_us_p99", "us", pct(t.body, 0.99, us), false},
		{"core.begin_end_ns_p50", "ns", pct(t.beginEnd, 0.5, ns), false},
		{"core.begin_end_ns_p99", "ns", pct(t.beginEnd, 0.99, ns), false},
		{"core.run_nest_us_p50", "us", pct(t.runNest, 0.5, us), false},
		{"core.run_nest_us_p99", "us", pct(t.runNest, 0.99, us), false},
		{"core.report_us_p50", "us", pct(t.report, 0.5, us), false},
		{"core.report_us_p99", "us", pct(t.report, 0.99, us), false},
		{"core.setconfig_us_p50", "us", pct(t.setConfig, 0.5, us), false},
		{"core.setconfig_us_p99", "us", pct(t.setConfig, 0.99, us), false},
		{"core.switch_drain_us_p50", "us", pct(t.drain, 0.5, us), false},
		{"core.switch_drain_us_p99", "us", pct(t.drain, 0.99, us), false},
		{"core.trace_lag_us_p99", "us", pct(t.traceLag, 0.99, us), false},
		{"core.reconfigurations", "count", float64(t.reconfigs), false},
		{"core.resizes", "count", float64(t.resizes), false},
		{"core.suspensions", "count", float64(t.suspends), false},
		{"core.task_failures", "count", float64(t.failures), false},
		{"platform.acquire_ns_p50", "ns", pct(t.acquire, 0.5, ns), false},
		{"platform.acquire_ns_p99", "ns", pct(t.acquire, 0.99, ns), false},
		{"platform.acquires", "count", float64(t.acquires.Load()), false},
		{"platform.blocked", "count", float64(t.blocked.Load()), false},
		{"platform.mean_occupancy", "contexts", meanOcc, false},
		{"mechanism.decide_us_p50", "us", pct(t.decide, 0.5, us), false},
		{"mechanism.decide_us_p99", "us", pct(t.decide, 0.99, us), false},
		{"mechanism.decisions", "count", float64(t.decisions.Load()), false},
		{"mechanism.change_ratio", "1", ratio(float64(t.changed.Load()), float64(t.decisions.Load())), false},
		{"metrics.snapshot_us_p50", "us", pct(t.snapshot, 0.5, us), false},
		{"metrics.snapshot_us_p99", "us", pct(t.snapshot, 0.99, us), false},
		{"metrics.dropped_ratio", "1", ratio(float64(t.collectorDropped), float64(t.events.Load())), false},
		{"gen.lag_us_p99", "us", lagP99, false},
		{"gen.lag_total_ms", "ms", lagTotal, false},
		{"go.gc_per_kitem", "1", ratio(float64(t.gcAfter-t.gcBefore), float64(t.itemsDone)/1000), false},
		{"trace.overhead_items_pct", "%", (ratio(t.untracedItemsPerSec, t.tracedItemsPerSec) - 1) * 100, false},
		{"trace.overhead_p50_pct", "%", (ratio(t.p50, t.untracedP50) - 1) * 100, false},
	}
}
