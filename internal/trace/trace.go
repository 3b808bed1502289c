// Package trace implements allocation-light, request-scoped stage tracing
// for the inference pipeline — the "where does the time go" layer the
// latency reports are built on. A request's life is split into the stages
// of the paper's serving pipeline (queue wait, admission, batch assembly,
// embedding lookup, encoder forward pass, MIPS top-k, serialisation — plus,
// on sharded deployments, the scatter/wait/merge stages of the
// scatter-gather retrieval tier in internal/shard); each
// stage aggregates into a latency histogram, and a bounded tail-exemplar
// buffer retains the full span breakdown of the slowest requests so a p99
// regression can be attributed to a specific stage, not just observed.
//
// The clock is pluggable: the live server traces under the wall clock while
// the discrete-event simulator (internal/sim) traces the same spans under
// virtual time, so live and simulated breakdowns are directly comparable.
//
// Tracing is zero-cost when disabled: a nil *Tracer yields nil *Spans, and
// every Span and Tracer method is nil-safe, so instrumented code paths pay
// one pointer check per stage — nothing else (see the overhead guard in
// internal/server).
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"etude/internal/metrics"
)

// Stage enumerates the pipeline stages of one inference request, in
// pipeline order.
type Stage int

const (
	// StageQueueWait is time spent waiting for an execution slot: the
	// wait for a free executor on the unbatched path (a batch of one), and
	// the head-of-line wait inside a flushed batch (requests execute
	// sequentially) on the batched path.
	StageQueueWait Stage = iota
	// StageAdmission covers request decoding, validation and the admission
	// decision (shed / degrade / serve).
	StageAdmission
	// StageBatchAssembly is the enqueue→flush wait of the batched path: how
	// long the request sat in the batcher's buffer before the batch was
	// dispatched (bounded by the flush interval).
	StageBatchAssembly
	// StageSchedWait is the enqueue→flush wait of the scheduled path
	// (internal/sched): how long the request sat in its tenant queue before
	// the WDRR scheduler assembled it into a batch. It is the scheduled
	// counterpart of StageBatchAssembly, kept distinct so tenant-isolation
	// experiments can attribute tail movement to scheduling rather than
	// plain batching.
	StageSchedWait
	// StageEmbeddingLookup is the session-item embedding gather.
	StageEmbeddingLookup
	// StageEncoderForward is the architecture-specific session encoder —
	// the C-independent term of the paper's cost decomposition.
	StageEncoderForward
	// StageMIPSTopK is the maximum-inner-product scan over the catalog plus
	// top-k selection — the O(C·(d+log k)) term that dominates at scale.
	StageMIPSTopK
	// StageShardScatter is the scatter half of the sharded retrieval tier
	// (internal/shard): fanning the session representation out to the
	// per-shard top-k workers.
	StageShardScatter
	// StageShardWait is the gather wait of the sharded tier: from scatter
	// completion until the last partial top-k arrives — the straggler term
	// that tail-latency hedging attacks.
	StageShardWait
	// StageShardMerge is the k-way merge of the partial top-k lists into
	// the exact global top-k.
	StageShardMerge
	// StagePartialMerge is the degraded variant of StageShardMerge: the
	// k-way merge over a strict subset of shard groups after the
	// partial-result policy dropped failed or straggling shards. Keeping it
	// distinct from StageShardMerge lets the breakdown separate full-
	// coverage merges from degraded ones.
	StagePartialMerge
	// StageSerialize is response encoding.
	StageSerialize
	// NumStages is the number of stages (array sizing).
	NumStages
)

var stageNames = [NumStages]string{
	"queue-wait", "admission", "batch-assembly", "sched-wait", "embedding-lookup",
	"encoder-forward", "mips-topk", "shard-scatter", "shard-wait",
	"shard-merge", "partial-merge", "serialize",
}

// String names the stage for reports and metric labels.
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// Stages lists all stages in pipeline order.
func Stages() []Stage {
	out := make([]Stage, NumStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// StageByName is the inverse of Stage.String — it resolves a stage from
// its metric-label name (e.g. "mips-topk"), for callers that address
// stages from configuration or serialized metric keys.
func StageByName(name string) (Stage, bool) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// Clock supplies monotonic timestamps as offsets from an arbitrary epoch.
// The live server uses WallClock; the simulator plugs in its virtual-time
// engine.
type Clock func() time.Duration

// WallClock returns a Clock reading the process monotonic clock.
func WallClock() Clock {
	epoch := time.Now()
	return func() time.Duration { return time.Since(epoch) }
}

// Options configures a Tracer.
type Options struct {
	// Clock supplies timestamps (default: WallClock()).
	Clock Clock
	// Exemplars bounds the tail-exemplar buffer: the full span breakdowns
	// of the Exemplars slowest requests are retained (default 8; negative
	// disables exemplar retention).
	Exemplars int
}

// Tracer aggregates request spans: per-stage latency histograms, an
// end-to-end histogram, batch-size statistics and the tail-exemplar buffer.
// All methods are safe for concurrent use and nil-safe — a nil *Tracer is
// the disabled tracer.
type Tracer struct {
	clock     Clock
	stages    [NumStages]*metrics.Histogram
	total     *metrics.Histogram
	exemplarN int

	// batch-size-at-flush statistics (sizes are small ints, not durations,
	// so they get plain atomics instead of a latency histogram).
	batchFlushes atomic.Int64
	batchSum     atomic.Int64
	batchMax     atomic.Int64

	// errors counts spans finished with FinishError — requests that reached
	// service but failed. Their stage costs still land in the aggregates
	// (the work was done), unlike Discarded spans which never served.
	errors atomic.Int64

	// exemplarFloor caches the smallest total in the exemplar buffer so the
	// hot path can skip the lock for ordinary requests.
	exemplarFloor atomic.Int64
	exMu          sync.Mutex
	exemplars     []Exemplar // min-heap by Total

	pool sync.Pool
}

// New builds a Tracer.
func New(opts Options) *Tracer {
	if opts.Clock == nil {
		opts.Clock = WallClock()
	}
	if opts.Exemplars == 0 {
		opts.Exemplars = 8
	}
	if opts.Exemplars < 0 {
		opts.Exemplars = 0
	}
	t := &Tracer{clock: opts.Clock, total: metrics.NewHistogram(), exemplarN: opts.Exemplars}
	for i := range t.stages {
		t.stages[i] = metrics.NewHistogram()
	}
	t.pool.New = func() any { return new(Span) }
	return t
}

// Enabled reports whether the tracer records anything (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Now reads the tracer's clock (zero for a nil tracer).
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return t.clock()
}

// Start opens a span for one request. A nil tracer returns a nil span;
// every Span method is nil-safe, so callers never branch on enablement.
func (t *Tracer) Start(id string) *Span {
	if t == nil {
		return nil
	}
	sp := t.pool.Get().(*Span)
	*sp = Span{t: t, id: id, start: t.clock()}
	return sp
}

// ObserveBatchFlush notes one batch dispatch of the given size.
func (t *Tracer) ObserveBatchFlush(size int) {
	if t == nil {
		return
	}
	t.batchFlushes.Add(1)
	t.batchSum.Add(int64(size))
	for {
		cur := t.batchMax.Load()
		if int64(size) <= cur || t.batchMax.CompareAndSwap(cur, int64(size)) {
			return
		}
	}
}

// BatchStats returns the number of batch flushes, the mean batch size and
// the largest batch dispatched.
func (t *Tracer) BatchStats() (flushes int64, mean float64, max int64) {
	if t == nil {
		return 0, 0, 0
	}
	flushes = t.batchFlushes.Load()
	if flushes > 0 {
		mean = float64(t.batchSum.Load()) / float64(flushes)
	}
	return flushes, mean, t.batchMax.Load()
}

// StageSnapshot summarises one stage's latency distribution.
func (t *Tracer) StageSnapshot(s Stage) metrics.Snapshot {
	if t == nil || s < 0 || s >= NumStages {
		return metrics.Snapshot{}
	}
	return t.stages[s].Snapshot()
}

// TotalSnapshot summarises the end-to-end (request-receipt to
// response-write) latency distribution.
func (t *Tracer) TotalSnapshot() metrics.Snapshot {
	if t == nil {
		return metrics.Snapshot{}
	}
	return t.total.Snapshot()
}

// Exemplar is the retained breakdown of one slow request.
type Exemplar struct {
	ID        string        `json:"id"`
	Total     time.Duration `json:"total"`
	BatchSize int           `json:"batch_size,omitempty"`
	Failed    bool          `json:"failed,omitempty"`
	Stages    [NumStages]time.Duration
}

// String renders the exemplar compactly for reports.
func (e Exemplar) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s total=%s", e.ID, e.Total.Round(time.Microsecond))
	if e.BatchSize > 1 {
		fmt.Fprintf(&b, " batch=%d", e.BatchSize)
	}
	if e.Failed {
		b.WriteString(" FAILED")
	}
	for s, d := range e.Stages {
		if d > 0 {
			fmt.Fprintf(&b, " %s=%s", Stage(s), d.Round(time.Microsecond))
		}
	}
	return b.String()
}

// Exemplars returns the retained slowest-request breakdowns, slowest first.
func (t *Tracer) Exemplars() []Exemplar {
	if t == nil {
		return nil
	}
	t.exMu.Lock()
	out := append([]Exemplar(nil), t.exemplars...)
	t.exMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

// offer inserts a finished span into the exemplar buffer when it is slower
// than the current floor.
func (t *Tracer) offer(sp *Span, total time.Duration) {
	if t.exemplarN == 0 {
		return
	}
	if int64(total) <= t.exemplarFloor.Load() {
		return // fast path: not a tail request
	}
	ex := Exemplar{ID: sp.id, Total: total, BatchSize: sp.batch, Failed: sp.failed, Stages: sp.stages}
	t.exMu.Lock()
	if len(t.exemplars) < t.exemplarN {
		t.exemplars = append(t.exemplars, ex)
	} else {
		// Replace the current minimum (the buffer is small — N≈8 — so a
		// linear scan beats heap bookkeeping).
		minIdx := 0
		for i, e := range t.exemplars {
			if e.Total < t.exemplars[minIdx].Total {
				minIdx = i
			}
			_ = e
		}
		if total > t.exemplars[minIdx].Total {
			t.exemplars[minIdx] = ex
		}
	}
	if len(t.exemplars) == t.exemplarN {
		floor := t.exemplars[0].Total
		for _, e := range t.exemplars[1:] {
			if e.Total < floor {
				floor = e.Total
			}
		}
		t.exemplarFloor.Store(int64(floor))
	}
	t.exMu.Unlock()
}

// Span is the per-request trace: one duration slot per stage plus the
// request's end-to-end time. Spans are pooled; after Finish (or
// FinishTotal) the span must not be touched. All methods are nil-safe.
//
// A span is written by one goroutine at a time: hand-offs between the
// request goroutine and the batch dispatcher are sequenced by the batcher's
// reply channel. A request that abandons its span mid-flight (client
// cancellation while batched) must simply drop the pointer — see Server's
// predict handler — so the dispatcher's late writes land on garbage, not on
// a recycled span.
type Span struct {
	t      *Tracer
	id     string
	start  time.Duration
	batch  int
	failed bool

	stages [NumStages]time.Duration
}

// ID returns the request id the span was started with.
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// Now reads the owning tracer's clock (zero for a nil span).
func (s *Span) Now() time.Duration {
	if s == nil {
		return 0
	}
	return s.t.clock()
}

// Observe adds d to the stage's accumulated duration. Multiple attempts of
// the same stage sum (a retried stage reports its total cost).
func (s *Span) Observe(st Stage, d time.Duration) {
	if s == nil || st < 0 || st >= NumStages || d <= 0 {
		return
	}
	s.stages[st] += d
}

// ObserveSince observes now-from for the stage — the usual "mark the start,
// observe at the end" pattern.
func (s *Span) ObserveSince(st Stage, from time.Duration) {
	if s == nil {
		return
	}
	s.Observe(st, s.t.clock()-from)
}

// SetBatchSize notes the size of the batch the request was served in.
func (s *Span) SetBatchSize(n int) {
	if s == nil {
		return
	}
	s.batch = n
}

// Finish closes the span with end-to-end time measured on the tracer's
// clock and folds it into the aggregates. The span is recycled: callers
// must drop every reference.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.FinishTotal(s.t.clock() - s.start)
}

// FinishTotal closes the span with an explicitly measured end-to-end time —
// the entry point for the simulator, whose request lifetime is tracked in
// virtual time outside the span.
func (s *Span) FinishTotal(total time.Duration) {
	if s == nil {
		return
	}
	t := s.t
	for st, d := range s.stages {
		if d > 0 {
			t.stages[st].Record(d)
		}
	}
	if total > 0 {
		t.total.Record(total)
		t.offer(s, total)
	}
	*s = Span{}
	t.pool.Put(s)
}

// FinishError closes the span as a failed request: stage costs and the
// end-to-end time still fold into the aggregates — the work was done and a
// tail analysis that silently drops failures lies about where time went —
// and the tracer's error count increments. The exemplar, if retained, is
// marked Failed. Like Finish, the span must not be touched after.
func (s *Span) FinishError() {
	if s == nil {
		return
	}
	s.FinishErrorTotal(s.t.clock() - s.start)
}

// FinishErrorTotal is FinishError with an explicitly measured end-to-end
// time (the simulator's entry point).
func (s *Span) FinishErrorTotal(total time.Duration) {
	if s == nil {
		return
	}
	s.failed = true
	s.t.errors.Add(1)
	s.FinishTotal(total)
}

// ErrorCount returns how many spans finished with an error outcome.
func (t *Tracer) ErrorCount() int64 {
	if t == nil {
		return 0
	}
	return t.errors.Load()
}

// Discard recycles the span without recording anything — for requests that
// never reached service (shed, malformed) and would otherwise pollute the
// stage distributions. Like Finish, the span must not be touched after.
// Do NOT call Discard on a span another goroutine may still write (e.g. a
// batched request whose Submit was cancelled): abandon it instead by
// dropping the pointer.
func (s *Span) Discard() {
	if s == nil {
		return
	}
	t := s.t
	*s = Span{}
	t.pool.Put(s)
}

// StageSum returns the sum of the span's stage durations so far (useful in
// tests asserting stage/total reconciliation).
func (s *Span) StageSum() time.Duration {
	if s == nil {
		return 0
	}
	var sum time.Duration
	for _, d := range s.stages {
		sum += d
	}
	return sum
}
