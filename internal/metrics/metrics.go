// Package metrics records the end-to-end measurements the paper reports:
// per-request response time (queue wait + execution, Equation 1), system
// throughput, and per-task execution time. Recorders are safe for
// concurrent use by many worker goroutines.
package metrics

import (
	"sync"
	"time"

	"dope/internal/stats"
)

// ResponseRecorder accumulates per-request response times, split into the
// two components of the paper's Equation 1:
//
//	T_response(t) = T_exec(DoP) + q(t)/Throughput(DoP)
//
// i.e. execution time plus time waiting in the work queue.
type ResponseRecorder struct {
	mu        sync.Mutex
	wait      stats.Welford
	exec      stats.Welford
	response  stats.Welford
	responses []float64
}

// Observe records one completed request.
func (r *ResponseRecorder) Observe(wait, exec time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := wait.Seconds()
	e := exec.Seconds()
	r.wait.Observe(w)
	r.exec.Observe(e)
	r.response.Observe(w + e)
	r.responses = append(r.responses, w+e)
}

// Count returns the number of completed requests.
func (r *ResponseRecorder) Count() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.response.Count()
}

// MeanResponse returns the mean response time in seconds.
func (r *ResponseRecorder) MeanResponse() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.response.Mean()
}

// MeanWait returns the mean queue wait in seconds.
func (r *ResponseRecorder) MeanWait() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wait.Mean()
}

// MeanExec returns the mean execution time in seconds.
func (r *ResponseRecorder) MeanExec() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.exec.Mean()
}

// Percentile returns the p-th percentile response time in seconds.
func (r *ResponseRecorder) Percentile(p float64) (float64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return stats.Percentile(r.responses, p)
}

// ThroughputMeter measures completions per second over its lifetime and
// over a sliding recent interval.
type ThroughputMeter struct {
	mu      sync.Mutex
	start   time.Time
	last    time.Time
	total   uint64
	started bool

	recent       *stats.EWMA // completions/sec, EWMA over inter-completion gaps
	lastComplete time.Time
}

// NewThroughputMeter returns a meter; alpha controls how quickly the recent
// throughput estimate adapts (0.1–0.3 works well for mechanism feedback).
func NewThroughputMeter(alpha float64) *ThroughputMeter {
	return &ThroughputMeter{recent: stats.NewEWMA(alpha)}
}

// Start marks the measurement epoch at now. Observations before Start use
// the first observation as the epoch.
func (m *ThroughputMeter) Start(now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.start = now
	m.started = true
}

// Observe records one completion at time now.
func (m *ThroughputMeter) Observe(now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.started {
		m.start = now
		m.started = true
	}
	m.total++
	m.last = now
	if !m.lastComplete.IsZero() {
		gap := now.Sub(m.lastComplete).Seconds()
		if gap > 0 {
			m.recent.Observe(1 / gap)
		}
	}
	m.lastComplete = now
}

// Total returns the number of completions observed.
func (m *ThroughputMeter) Total() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// Overall returns completions/second from the epoch to the last completion,
// or 0 before two data points exist.
func (m *ThroughputMeter) Overall() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.total == 0 || !m.last.After(m.start) {
		return 0
	}
	return float64(m.total) / m.last.Sub(m.start).Seconds()
}

// Recent returns the EWMA estimate of current throughput (completions/sec).
func (m *ThroughputMeter) Recent() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recent.Value()
}
