package main

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dope"
	"dope/internal/apps"
	"dope/internal/metrics"
	"dope/internal/queue"
)

// server-openloop is a swaptions-shaped two-level server on 24 virtual
// contexts: an outer PAR "serve" stage dequeues a request and runs an
// inner DOALL of srvChunks virtual-work chunks through Worker.RunNest (or
// its sequential alternative), under WQ-Linear. The nest is defined here,
// not taken from internal/apps, so Begin, End and RunNest can be timed at
// their call sites. Arrivals are a seeded Poisson stream at a fixed rate,
// so latency is set by mechanism decisions, nest instantiation and
// in-place resizes, while the queue sees one hop per request.
//
// The chunk length and the rate keep latency well above the millisecond
// wake-up delays of a virtual machine's sleeping threads, which otherwise
// decide the tail (README.md, "Departures from the workloads").
const (
	srvContexts   = 24
	srvChunks     = 16
	srvChunkUnits = 2000 // apps.Work units: 2 ms of virtual work
	srvRate       = 200  // requests per second
	// srvWindows keeps over 1000 requests in each window at 30 s, so
	// every window has a true p99 with 10 samples beyond it.
	srvWindows  = 5
	srvMmax     = 8
	srvQmax     = 10
	srvInterval = 5 * time.Millisecond
	// As dope-trace -admin does: a collector sampling every 20 ms, and a
	// dope-top-style poller fetching incremental snapshots every 100 ms.
	collectorWindow = 512
	collectorEvery  = 20 * time.Millisecond
	pollEvery       = 100 * time.Millisecond
	// queuePoll bounds how long an idle serve worker waits before
	// rechecking for a shrink or suspension; an enqueue wakes it at once.
	queuePoll = time.Millisecond
)

var serverOpenLoop = workload{
	params: map[string]string{
		"shape":    "outer PAR serve -> RunNest inner DOALL (alt: sequential)",
		"contexts": strconv.Itoa(srvContexts), "chunks": strconv.Itoa(srvChunks),
		"chunk_work": "apps.Work(1000) = 1ms virtual",
		"mechanism":  "WQ-Linear Threads 24 Mmax 8 Qmax 10, control interval 5ms",
		"collector":  "AttachCollector(512, 20ms) + Snapshot poll every 100ms",
		"arrivals":   "seeded Poisson " + strconv.Itoa(srvRate) + " req/s, open loop", "setup_reps": strconv.Itoa(setupReps),
	},
	run: runServerWorkload,
}

// request is one preallocated server request.
type request struct {
	id   uint64
	due  int64 // when it was due to arrive; latency is measured from here
	enq  int64 // traced: when Enqueue was called
	sum  atomic.Uint64
	span int32 // traced: the request's root span
	nest int32 // traced: its RunNest span, parent of the chunk spans
}

// chunkSum is what inner chunk c adds to request id's checksum. Chunks run
// in parallel, so they combine by addition; a chunk run twice or skipped
// still changes the total.
func chunkSum(seed, id uint64, c int) uint64 { return mix(seed ^ id<<8 ^ uint64(c)) }

func serverRef(seed uint64) func(uint64) uint64 {
	return func(id uint64) uint64 {
		sum := initialSum(seed, id)
		for c := 0; c < srvChunks; c++ {
			sum += chunkSum(seed, id, c)
		}
		return mix(sum)
	}
}

// srvRun is one executive instance of the server workload.
type srvRun struct {
	seed       uint64
	q          *queue.Queue[*request]
	led        *ledger
	tr         *tracer
	d          *dope.DoPE
	col        *metrics.Collector
	detach     func()
	nestErr    atomic.Pointer[error]
	accepted   chan struct{}
	acceptOnce sync.Once
	acceptedAt int64
}

func (s *srvRun) spec() *dope.NestSpec {
	inner := &dope.NestSpec{Name: "price", Alts: []*dope.AltSpec{
		{
			Name:   "doall",
			Stages: []dope.StageSpec{{Name: "simulate", Type: dope.PAR, MinDoP: 2}},
			Make:   s.makeDoall,
		},
		{
			Name:   "sequential",
			Stages: []dope.StageSpec{{Name: "simulate-seq", Type: dope.SEQ}},
			Make:   s.makeSeq,
		},
	}}
	return &dope.NestSpec{Name: "swaptions", Alts: []*dope.AltSpec{{
		Name:   "outer",
		Stages: []dope.StageSpec{{Name: "serve", Type: dope.PAR, Nest: inner}},
		Make: func(any) (*dope.AltInstance, error) {
			return &dope.AltInstance{Stages: []dope.StageFns{{
				Fn:      s.serveFn(inner),
				Load:    func() float64 { return float64(s.q.Len()) },
				Sojourn: s.q.MeanSojourn,
			}}}, nil
		},
	}}}
}

// chunk prices inner chunk c of req inside one Begin/End window; traced, it
// times the Begin and End calls and records the work as a span under the
// request's RunNest span.
func (s *srvRun) chunk(w *dope.Worker, req *request, c int) dope.Status {
	if s.tr == nil {
		w.Begin()
		apps.Work(srvChunkUnits)
		req.sum.Add(chunkSum(s.seed, req.id, c))
		return w.End()
	}
	t0 := now()
	w.Begin()
	t1 := now()
	apps.Work(srvChunkUnits)
	req.sum.Add(chunkSum(s.seed, req.id, c))
	t2 := now()
	st := w.End()
	t3 := now()
	s.tr.beginEnd.record(t1 - t0 + t3 - t2)
	s.tr.body.record(t2 - t1)
	s.tr.spans.close(s.tr.spans.open(spanChunk, req.id, req.nest, t1), t2)
	return st
}

func (s *srvRun) makeDoall(item any) (*dope.AltInstance, error) {
	req, ok := item.(*request)
	if !ok {
		return nil, fmt.Errorf("inner nest instantiated with %T", item)
	}
	var next atomic.Int64
	return &dope.AltInstance{Stages: []dope.StageFns{{
		Fn: func(w *dope.Worker) dope.Status {
			c := next.Add(1) - 1
			if c >= srvChunks {
				return dope.Finished
			}
			// Chunk c is claimed, so it is priced even when the window
			// reports Suspended.
			if s.chunk(w, req, int(c)) == dope.Suspended {
				return dope.Suspended
			}
			return dope.Executing
		},
		Load: func() float64 { return float64(max(srvChunks-next.Load(), 0)) },
	}}}, nil
}

func (s *srvRun) makeSeq(item any) (*dope.AltInstance, error) {
	req, ok := item.(*request)
	if !ok {
		return nil, fmt.Errorf("inner nest instantiated with %T", item)
	}
	c := 0
	return &dope.AltInstance{Stages: []dope.StageFns{{
		Fn: func(w *dope.Worker) dope.Status {
			if c >= srvChunks {
				return dope.Finished
			}
			st := s.chunk(w, req, c)
			c++
			if st == dope.Suspended {
				return dope.Suspended
			}
			return dope.Executing
		},
	}}}, nil
}

func (s *srvRun) serveFn(inner *dope.NestSpec) dope.Functor {
	return func(w *dope.Worker) dope.Status {
		if w.Suspending() {
			return dope.Suspended
		}
		req, ok, err := s.q.DequeueWhile(func() bool { return !w.Suspending() }, queuePoll)
		if errors.Is(err, queue.ErrClosed) {
			return dope.Finished
		}
		if !ok {
			return dope.Suspended
		}
		t0 := now()
		if req.id == 0 {
			s.acceptOnce.Do(func() {
				s.acceptedAt = t0
				close(s.accepted)
			})
		}
		var serve int32
		if tr := s.tr; tr != nil {
			tr.headWait.record(t0 - req.due)
			tr.hop.record(t0 - req.enq)
			serve = tr.spans.open(spanServe, req.id, req.span, t0)
			req.nest = tr.spans.open(spanRunNest, req.id, serve, now())
		}
		st, err := w.RunNest(inner, req)
		t1 := now()
		if s.tr != nil {
			s.tr.spans.close(req.nest, t1)
		}
		if err != nil {
			s.nestErr.CompareAndSwap(nil, &err)
			return dope.Finished
		}
		s.led.complete(req.id, mix(req.sum.Load()), req.due, t1)
		if s.tr != nil {
			s.tr.spans.close(serve, t1)
			s.tr.spans.close(req.span, t1)
		}
		if st == dope.Suspended {
			return dope.Suspended
		}
		return dope.Executing
	}
}

// submit stamps and enqueues a request that was due at due.
func (s *srvRun) submit(req *request, id uint64, due int64) {
	req.id, req.due, req.span = id, due, -1
	req.sum.Store(initialSum(s.seed, id))
	if s.tr != nil {
		req.span = s.tr.spans.open(spanItem, id, -1, due)
	}
	if s.tr != nil {
		req.enq = now()
	}
	// The queue is unbounded, so Enqueue fails only once closed, which
	// happens after the last submit.
	_ = s.q.Enqueue(req)
}

// setupServer builds and starts one executive with its collector and
// submits request 0 (probe), timing everything from the spec build until
// a serve worker dequeues it.
func setupServer(seed uint64, led *ledger, tr *tracer, probe *request) (*srvRun, time.Duration, error) {
	s := &srvRun{seed: seed, led: led, tr: tr, accepted: make(chan struct{})}
	t0 := now()
	s.q = queue.New[*request](0)
	spec := s.spec()
	goal := dope.MinResponseTime(srvContexts, srvMmax, srvQmax)
	opts := []dope.Option{dope.WithControlInterval(srvInterval)}
	if tr != nil {
		goal = dope.CustomGoal(goal.Name, srvContexts,
			&timedMechanism{inner: goal.Mechanism, root: spec, t: tr})
		opts = append(opts, tr.options(srvContexts)...)
	}
	d, err := dope.Create(spec, goal, opts...)
	if err != nil {
		return nil, 0, err
	}
	s.d = d
	if tr != nil {
		tr.exec.Store(d.Exec)
	}
	s.col, s.detach = d.AttachCollector(collectorWindow, collectorEvery)
	t := now()
	led.start(t)
	s.submit(probe, 0, t)
	select {
	case <-s.accepted:
	case <-time.After(10 * time.Second):
		s.q.Close()
		d.Stop()
		s.detach()
		return nil, 0, fmt.Errorf("server set-up: %w", errTimeout)
	}
	return s, time.Duration(s.acceptedAt - t0), nil
}

// close ends the request stream, waits for the executive to drain it and
// detaches the collector.
func (s *srvRun) close() error {
	s.q.Close()
	err := s.d.Destroy()
	s.detach()
	if p := s.nestErr.Load(); p != nil && err == nil {
		err = *p
	}
	return err
}

// serverPhase runs reps set-ups (all but the last drained at once) and
// then drives the last executive with the open-loop schedule for d.
func serverPhase(seed uint64, d time.Duration, reps int, tr *tracer) (*outcome, *lagStats, error) {
	o := &outcome{}
	for i := 0; i < reps-1; i++ {
		s, dur, err := setupServer(seed, newLedger(64, serverRef(seed), 0, 0), nil, new(request))
		if err != nil {
			return nil, nil, err
		}
		o.setups = append(o.setups, dur)
		if err := s.close(); err != nil {
			return nil, nil, err
		}
	}
	due := poissonSchedule(int64(seed), srvRate, d)
	reqs := make([]request, len(due)+1) // [0] is the set-up probe
	winLen := d / srvWindows
	led := newLedger(len(reqs), serverRef(seed), srvWindows, winLen)
	lag := &lagStats{h: newHist()}
	o.led = led
	runtime.GC()
	// The generator's thread stays locked from set-up on, so the CPU the
	// marker leaves out is always this one thread's.
	runtime.LockOSThread()
	s, dur, err := setupServer(seed, led, tr, &reqs[0])
	if err != nil {
		runtime.UnlockOSThread()
		return nil, nil, err
	}
	o.setups = append(o.setups, dur)
	o.firstSubmit = reqs[0].due
	mk := newMarker(o.firstSubmit, winLen, srvWindows, true)

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() { // the dope-top-style poller
		defer bg.Done()
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		var since uint64
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			t0 := now()
			snap := s.col.Snapshot(since)
			if tr != nil {
				tr.snapshot.record(now() - t0)
			}
			since = snap.Cursor
		}
	}()
	if tr != nil {
		wait := tr.sampler(s.d.Exec, 10*time.Millisecond, stop)
		bg.Add(1)
		go func() { defer bg.Done(); wait() }()
	}
	// The generator spins between arrivals instead of sleeping: on a
	// virtual machine a sleeping thread can wake milliseconds late, and
	// that lateness would be charged to every request it delays. Its
	// thread's CPU is left out of cpu_us_per_item (marker.self).
	spin := func(d time.Duration) {
		for t, end := now(), now()+int64(d); ; t = now() {
			mk.poll(t)
			if t >= end {
				return
			}
		}
	}
	mk.poll(now())
	base := now()
	n := runOpenLoop(base, due, now, spin,
		func() bool {
			select {
			case <-s.d.Done():
				return true
			default:
				return false
			}
		}, lag,
		func(i int, at int64) { s.submit(&reqs[i+1], uint64(i+1), at) })
	if n == len(due) {
		spin(time.Duration(mk.end() - now()))
	}
	o.marks = mk.marks
	runtime.UnlockOSThread()
	o.submitted = n + 1
	close(stop)
	bg.Wait()
	if tr != nil {
		tr.collectorDropped = s.col.Dropped()
	}
	o.err = s.close()
	if tr != nil {
		tr.finish(s.d.Exec)
	}
	return o, lag, nil
}

// seqServerPerSec prices requests one after another in one goroutine, the
// same chunk work back to back, for d: the single-threaded baseline.
func seqServerPerSec(seed uint64, d time.Duration) float64 {
	start := now()
	n := 0
	for ; now()-start < int64(d); n++ {
		id := uint64(n + 1)
		sum := initialSum(seed, id)
		for c := 0; c < srvChunks; c++ {
			apps.Work(srvChunkUnits)
			sum += chunkSum(seed, id, c)
		}
		_ = mix(sum)
	}
	return float64(n) / (float64(now()-start) / 1e9)
}

func runServerWorkload(seed int64, d time.Duration, traced bool) ([]metric, *outcome, error) {
	s := uint64(seed)
	if !traced {
		o, lag, err := serverPhase(s, d, setupReps, nil)
		if err != nil {
			return nil, nil, err
		}
		fmt.Printf("# generator lag: p99 %.1f us, total %.3f ms over %d arrivals\n",
			pct(lag.h, 0.99, 1e3), float64(lag.total)/1e6, lag.h.count())
		return endToEnd(o), o, nil
	}
	half := d / 2
	base, _, err := serverPhase(s, half, 1, nil)
	if err != nil {
		return nil, nil, err
	}
	seq := seqServerPerSec(s, min(time.Second, d/10))
	// Spans per request: item, serve, run_nest and one per chunk.
	tr := newTracer(int(half.Seconds()*srvRate*1.3)*(srvChunks+3) + 1024)
	o, lag, err := serverPhase(s, half, 1, tr)
	if err != nil {
		return nil, nil, err
	}
	tr.lag = lag
	tr.phaseDone(base, o, seq)
	selfTimes(tr.spans.closed(), spanRunNest, spanChunk, tr.runNest)
	if err := saveSpans("server-openloop", tr.spans); err != nil {
		return nil, nil, err
	}
	if !base.correct() {
		return tr.layerMetrics(), base, nil
	}
	return tr.layerMetrics(), o, nil
}
