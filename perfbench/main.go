// Command perfbench is the repository's end-to-end benchmark: it runs one
// live-runtime workload against the executive from a single process,
// checks every item's output, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload pipeline-batch --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one named, measured value. A lineOnly metric is printed but
// left out of the result line, whose metrics are exactly BENCHMARK.json's.
type metric struct {
	name     string
	unit     string
	value    float64
	lineOnly bool
}

// A measured phase is cut into equal windows (pipeWindows, srvWindows).
// The per-item end-to-end metrics are the median over windows, so a
// window disturbed by something outside the benchmark (a noisy
// neighbour, an unlucky GC) does not move a run's figure.

// outcome is what one measured phase of a workload leaves behind.
type outcome struct {
	setups      []time.Duration // every set-up of the phase
	submitted   int
	firstSubmit int64 // benchmark clock, ns
	led         *ledger
	marks       []usage // at each window boundary, the first submit included
	err         error   // the executive's run error, if any
}

func (o *outcome) completed() int { return int(o.led.good.Load()) }

func (o *outcome) failRatio() float64 {
	if o.submitted == 0 {
		return 1
	}
	return float64(o.led.failed(o.submitted)) / float64(o.submitted)
}

// correct reports whether every submitted item completed exactly once with
// the reference checksum and the executive reported no error.
func (o *outcome) correct() bool {
	return o.err == nil && o.submitted > 0 && o.led.failed(o.submitted) == 0 &&
		o.led.dup.Load() == 0 && o.led.bad.Load() == 0 && o.led.overflow.Load() == 0
}

// perWindow holds one value per measured window for each per-item metric.
type perWindow struct {
	itemsPerSec, p50, p99, cpu, allocs []float64
}

func (o *outcome) perWindow() perWindow {
	var w perWindow
	secs := float64(o.led.winLen) / 1e9
	for k, h := range o.led.win {
		n := h.count()
		if n == 0 || k+1 >= len(o.marks) {
			continue
		}
		q, _ := tailPercentile(n, 0.99)
		w.itemsPerSec = append(w.itemsPerSec, float64(n)/secs)
		w.p50 = append(w.p50, h.quantile(0.5)/1e3)
		w.p99 = append(w.p99, h.quantile(q)/1e3)
		w.cpu = append(w.cpu, float64(o.marks[k+1].cpu-o.marks[k].cpu)/1e3/float64(n))
		w.allocs = append(w.allocs, float64(o.marks[k+1].mallocs-o.marks[k].mallocs)/float64(n))
	}
	return w
}

func (o *outcome) itemsPerSec() float64 { return medianOf(o.perWindow().itemsPerSec) }

func (o *outcome) latencyP50() float64 { return medianOf(o.perWindow().p50) }

// windowItems is how many items completed inside the measured windows.
func (o *outcome) windowItems() int {
	n := 0
	for _, h := range o.led.win {
		n += h.count()
	}
	return n
}

func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func median(ds []time.Duration) time.Duration {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d)
	}
	return time.Duration(medianOf(v))
}

// endToEnd computes the metrics a user of the executive sees: the per-item
// ones as medians over the phase's windows. Two are printed but not in the
// result line: fail_ratio, which is 0 on a correct run and is carried as
// attempted/failed instead, and latency_p99_us, which on a virtual machine
// measures the host's CPU steal more than the program (README.md).
func endToEnd(o *outcome) []metric {
	w := o.perWindow()
	return []metric{
		{"setup_s", "s", median(o.setups).Seconds(), false},
		{"items_per_s", "1/s", medianOf(w.itemsPerSec), false},
		{"latency_p50_us", "us", medianOf(w.p50), false},
		{"latency_p99_us", "us", medianOf(w.p99), true},
		{"cpu_us_per_item", "us", medianOf(w.cpu), false},
		{"allocs_per_item", "1", medianOf(w.allocs), false},
		{"peak_rss_mb", "MB", peakRSSMB(), false},
		{"fail_ratio", "1", o.failRatio(), true},
	}
}

// printWholeRun prints, as a comment line, the whole-phase figures the
// window medians summarize: throughput from the first submit to the last
// completion, and latency over every item, with the percentile the tail
// figure is taken at and how many samples lie beyond it.
func printWholeRun(label string, o *outcome) {
	n := o.led.lat.count()
	q, beyond := tailPercentile(n, 0.99)
	var ips float64
	if span := o.led.lastDone.Load() - o.firstSubmit; span > 0 {
		ips = float64(o.completed()) / (float64(span) / 1e9)
	}
	fmt.Printf("# %s whole run: items_per_s=%.6g latency_p50_us=%.6g latency_p%g_us=%.6g samples=%d beyond=%d\n",
		label, ips, o.led.lat.quantile(0.5)/1e3, q*100, o.led.lat.quantile(q)/1e3, n, beyond)
	w := o.perWindow()
	var steal []int64
	for k := 1; k < len(o.marks); k++ {
		steal = append(steal, o.marks[k].steal-o.marks[k-1].steal)
	}
	fmt.Printf("# %s windows: items_per_s=%.6g latency_p99_us=%.6g cpu_us_per_item=%.4g steal_ticks=%v\n",
		label, w.itemsPerSec, w.p99, w.cpu, steal)
}

// marker takes the usage snapshot at each window boundary, from the
// generator's own loop (which knows the time anyway), so no extra
// goroutine wakes up to take them. With self set it leaves out the
// calling thread's CPU: a spinning open-loop generator is the load, not
// the system under test.
type marker struct {
	start, winLen int64
	n             int // windows
	self          bool
	marks         []usage
}

func newMarker(start int64, winLen time.Duration, n int, self bool) *marker {
	return &marker{start: start, winLen: int64(winLen), n: n, self: self}
}

// end is the last window boundary.
func (m *marker) end() int64 { return m.start + int64(m.n)*m.winLen }

// poll takes every snapshot whose boundary is at or before t.
func (m *marker) poll(t int64) {
	for len(m.marks) <= m.n && t >= m.start+int64(len(m.marks))*m.winLen {
		u := takeUsage()
		if m.self {
			u.cpu -= threadCPU()
		}
		m.marks = append(m.marks, u)
	}
}

// workload runs one benchmark workload for the given measuring time and
// returns its metrics, the outcome whose items decide correctness, and
// the parameters that define its shape.
type workload struct {
	params map[string]string
	run    func(seed int64, seconds time.Duration, traced bool) ([]metric, *outcome, error)
}

var workloads = map[string]workload{
	"pipeline-batch":  pipelineBatch,
	"server-openloop": serverOpenLoop,
	"reconfig-churn":  reconfigChurn,
}

func main() {
	name := flag.String("workload", "", "workload: pipeline-batch, server-openloop or reconfig-churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measuring time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (pipeline-batch, server-openloop, reconfig-churn), --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	// One generator goroutine feeds each workload; the executive's workers
	// share at most two CPUs, so results from hosts with more cores stay
	// comparable with the two-CPU host the bounds were set on.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	steal0, wall0 := stealTicks(), time.Now()
	metrics, o, err := w.run(*seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if o.err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: executive error: %v\n", *name, o.err)
	}
	if *trace == 0 {
		printWholeRun("measured", o)
	}

	fmt.Printf("# perfbench %s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)
	if steal1 := stealTicks(); steal0 >= 0 && steal1 >= 0 {
		// Clock ticks are 1/100 s on Linux; summed over all CPUs.
		fmt.Printf("# host steal: %.2f CPU-s over %.1f s of run\n",
			float64(steal1-steal0)/100, time.Since(wall0).Seconds())
	}
	prov := hostProvenance(*seed, *name, w.params)
	pj, _ := json.Marshal(prov) // plain strings and ints cannot fail to encode
	fmt.Printf("provenance %s\n", pj)
	fmt.Printf("check submitted=%d completed_once_ok=%d duplicated=%d bad_checksum=%d untracked=%d latency_samples=%d\n",
		o.submitted, o.led.good.Load(), o.led.dup.Load(), o.led.bad.Load(), o.led.overflow.Load(), o.led.lat.count())
	out := map[string]map[string]any{}
	for _, m := range metrics {
		fmt.Printf("%-26s %16.6f %s\n", m.name, m.value, m.unit)
		if m.lineOnly {
			continue
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			m.value = 0
		}
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	correct := o.correct()
	res, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": max(o.submitted, 1),
		"failed":    o.led.failed(o.submitted),
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(res))
	if !correct {
		os.Exit(1)
	}
}

// spansPath is where a traced run leaves its spans, inside the build
// directory run.sh uses, one file per workload (overwritten by each run).
func spansPath(workload string) string {
	return filepath.Join(".bench_build", "spans", workload+".jsonl")
}

func saveSpans(workload string, b *spanBuf) error {
	p := spansPath(workload)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	if err := writeSpans(p, b.closed()); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("# spans: %d written to %s, %d dropped (buffer full)\n", len(b.closed()), p, b.dropped.Load())
	return nil
}

var errTimeout = errors.New("timed out waiting for the executive")

// printPhase prints a phase's end-to-end figures as comment lines, for a
// traced run whose result line carries only the per-layer metrics.
func printPhase(label string, o *outcome) {
	fmt.Printf("# %s:", label)
	for _, m := range endToEnd(o) {
		fmt.Printf(" %s=%.6g", m.name, m.value)
	}
	fmt.Printf(" submitted=%d\n", o.submitted)
}
