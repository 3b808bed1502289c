package metrics

import (
	"sync"
	"time"
)

// TickStats aggregates one load-generator tick (one second of wall or
// virtual time): how many requests completed, how many errored, and the
// latency distribution of the successes.
type TickStats struct {
	Tick      int   `json:"tick"`
	Sent      int64 `json:"sent"`
	Completed int64 `json:"completed"`
	Errors    int64 `json:"errors"`
	Degraded  int64 `json:"degraded,omitempty"`
	// Partial counts successful partial-coverage responses; CoverageMean is
	// the mean shard-coverage fraction over the tick's successes (1 when
	// every answer saw the full catalog, 0 when the tick had no successes).
	Partial      int64   `json:"partial,omitempty"`
	CoverageMean float64 `json:"coverage_mean,omitempty"`
	Retries      int64   `json:"retries,omitempty"`
	// Errors split by kind (their sum equals Errors) so a time-series plot
	// shows when the failure mode shifted, not just that errors occurred.
	Timeouts     int64         `json:"timeouts,omitempty"`
	Refused      int64         `json:"refused,omitempty"`
	ServerErrors int64         `json:"server_errors,omitempty"`
	OtherErrors  int64         `json:"other_errors,omitempty"`
	P50          time.Duration `json:"p50"`
	P90          time.Duration `json:"p90"`
	P99          time.Duration `json:"p99"`
	// Tenant labels the workload the recorder measured (the X-Tenant value
	// the load generator stamped on its requests); empty for single-tenant
	// runs.
	Tenant string `json:"tenant,omitempty"`
}

// Recorder collects per-tick statistics plus an overall histogram over a
// whole benchmark run. It is safe for concurrent use.
type Recorder struct {
	mu       sync.Mutex
	ticks    map[int]*tickAcc
	overall  *Histogram
	errs     int64
	sent     int64
	tenant   string
	outcomes OutcomeCounts
}

type tickAcc struct {
	sent       int64
	completed  int64
	errors     int64
	degraded   int64
	partial    int64
	covSum     float64 // sum of partial responses' coverage fractions
	retries    int64
	timeouts   int64
	refused    int64
	serverErrs int64
	otherErrs  int64
	hist       *Histogram
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{ticks: make(map[int]*tickAcc), overall: NewHistogram()}
}

func (r *Recorder) tick(t int) *tickAcc {
	acc, ok := r.ticks[t]
	if !ok {
		acc = &tickAcc{hist: NewHistogram()}
		r.ticks[t] = acc
	}
	return acc
}

// SetTenant labels every tick of this recorder with a tenant name — the
// per-tenant CSV series of a multi-tenant run use one recorder per tenant.
func (r *Recorder) SetTenant(tenant string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tenant = tenant
}

// RecordSent notes that a request was issued during tick t.
func (r *Recorder) RecordSent(t int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tick(t).sent++
	r.sent++
}

// RecordLatency notes a successful response observed during tick t.
func (r *Recorder) RecordLatency(t int, d time.Duration) {
	r.mu.Lock()
	acc := r.tick(t)
	acc.completed++
	acc.hist.Record(d)
	r.mu.Unlock()
	r.overall.Record(d)
}

// RecordError notes a failed (timeout / HTTP error) response during tick t.
// Use RecordErrorKind when the failure mode is known.
func (r *Recorder) RecordError(t int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recordErrorLocked(t).otherErrs++
	r.outcomes.OtherErrors++
}

func (r *Recorder) recordErrorLocked(t int) *tickAcc {
	acc := r.tick(t)
	acc.completed++
	acc.errors++
	r.errs++
	return acc
}

// Overall returns the run-wide latency snapshot (successes only).
func (r *Recorder) Overall() Snapshot {
	return r.overall.Snapshot()
}

// Errors returns the run-wide error count.
func (r *Recorder) Errors() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.errs
}

// Sent returns the run-wide issued-request count.
func (r *Recorder) Sent() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sent
}

// Series returns per-tick statistics in tick order.
func (r *Recorder) Series() []TickStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	maxTick := -1
	for t := range r.ticks {
		if t > maxTick {
			maxTick = t
		}
	}
	out := make([]TickStats, 0, maxTick+1)
	for t := 0; t <= maxTick; t++ {
		acc, ok := r.ticks[t]
		ts := TickStats{Tick: t, Tenant: r.tenant}
		if ok {
			ts.Sent = acc.sent
			ts.Completed = acc.completed
			ts.Errors = acc.errors
			ts.Degraded = acc.degraded
			ts.Partial = acc.partial
			// Mean coverage over the tick's successes: full-coverage answers
			// contribute 1 each, partial answers their fraction.
			if successes := acc.completed - acc.errors; successes > 0 {
				ts.CoverageMean = (acc.covSum + float64(successes-acc.partial)) / float64(successes)
			}
			ts.Retries = acc.retries
			ts.Timeouts = acc.timeouts
			ts.Refused = acc.refused
			ts.ServerErrors = acc.serverErrs
			ts.OtherErrors = acc.otherErrs
			ts.P50 = acc.hist.Quantile(0.5)
			ts.P90 = acc.hist.Quantile(0.9)
			ts.P99 = acc.hist.Quantile(0.99)
		}
		out = append(out, ts)
	}
	return out
}
