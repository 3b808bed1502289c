// Package batching implements the request-batching stage of the inference
// server — the Go analogue of the batched-fn Rust crate the paper uses for
// GPU inference, and, at a batch size of one, the server's unbatched CPU
// serving. Incoming requests accumulate in a buffer that is flushed to a
// batch handler when the maximum batch size is reached (paper setting:
// 1,024 requests), the flush interval elapses (paper setting: two
// milliseconds), or — new to this implementation — the tightest propagated
// deadline among the buffered requests would otherwise pass.
//
// The flush decision belongs to internal/sched (Core and its Assembly
// policy); this package drives it from the wall clock, shaped like the
// simulator's pump: a batch is assembled only when one of the batcher's
// executors is free, so deadline expiry, cancellation and CoDel sojourn
// are judged when the work can actually start, and it runs on the
// goroutine of its first request. The plain FIFO batcher (New) is a
// one-tenant sched.Core, the multi-tenant scheduler (NewTenants) the same
// loop over declared tenant queues, and the discrete-event simulator
// drives the same Core from virtual time.
package batching

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"etude/internal/overload"
	"etude/internal/sched"
)

// ErrClosed is returned by Submit after the batcher is shut down.
var ErrClosed = errors.New("batching: batcher closed")

// ErrCoDelDropped is returned by Submit when the queue discipline sheds
// the request at flush time: its sojourn in the buffer signalled a
// standing queue. The caller should answer 503 — the request itself was
// fine, the server is behind.
var ErrCoDelDropped = errors.New("batching: shed by CoDel queue discipline")

// ErrDeadlineExpired is returned by Submit when the request's propagated
// deadline passed while it sat in the buffer: the entry is dropped at
// flush time instead of spending handler FLOPs on a response nobody is
// waiting for. The caller should answer 504. It is sched.ErrExpired, which
// matches errors.Is(err, context.DeadlineExceeded) so budget-generic
// callers need no special case.
var ErrDeadlineExpired = sched.ErrExpired

// Config controls batch formation.
type Config struct {
	// MaxBatch flushes the buffer when this many requests are pending.
	MaxBatch int
	// FlushEvery flushes any non-empty buffer after this interval. A
	// buffered request whose deadline is tighter than the interval pulls
	// the flush earlier (see sched.Assembly.FlushAt).
	FlushEvery time.Duration
	// DeadlineSlack is the headroom reserved before the tightest member
	// deadline when pulling a flush early (see sched.Assembly). Zero picks
	// a default of FlushEvery/4 capped at 5ms.
	DeadlineSlack time.Duration
	// CoDel, when set, sheds buffered requests whose sojourn time shows a
	// standing queue (evaluated per entry at flush, in arrival order).
	// Expired-deadline entries are always dropped at flush regardless.
	CoDel *overload.CoDel
}

// DefaultConfig returns the paper's settings: up to 1,024 requests, flushed
// every two milliseconds.
func DefaultConfig() Config {
	return Config{MaxBatch: 1024, FlushEvery: 2 * time.Millisecond}
}

// Sched returns the one-tenant scheduler configuration cfg describes.
func (cfg Config) Sched() sched.Config {
	return sched.Config{MaxBatch: cfg.MaxBatch, FlushEvery: cfg.FlushEvery, DeadlineSlack: cfg.DeadlineSlack}
}

// Handler processes one batch of requests and must return one response
// per request, in order. It runs on the goroutine of the batch's first
// request. Up to the batcher's executor count of batches run at once (one
// for New): that many accelerators each executing one kernel sequence at
// a time or, unbatched, that many CPU worker slots.
type Handler[Req, Resp any] func(batch []Req) []Resp

// Batcher groups individual requests into batches. Create with New or
// NewTenants, submit with Submit, and release resources with Close.
type Batcher[Req, Resp any] struct {
	// mu guards core, free and the flush timer state. Contention is one
	// short critical section per enqueue and per batch — the handler runs
	// outside the lock.
	mu       sync.Mutex
	core     *sched.Core[*waiter[Req, Resp]]
	tenantOf func(Req) string
	codel    *overload.CoDel
	handler  Handler[Req, Resp]
	// now is the batcher's monotonic clock (offsets from construction).
	now func() time.Duration
	// free holds the idle executors: a batch is assembled only into one.
	free []*executor[Req, Resp]
	// timer fires at armedAt, the core's next flush instant, while an
	// executor is free for what waits for it. It is the only goroutine the
	// batcher starts, and only when a batch waits on the clock.
	timer   *time.Timer
	armed   bool
	armedAt time.Duration
	closed  bool
	done    chan struct{}
	waiters sync.Pool
	pending atomic.Int64
}

// waiter is one submitted request, recycled once its submitter has taken
// the answer or, when the submitter left while it was still queued, once
// assembly reaches it.
type waiter[Req, Resp any] struct {
	req   Req
	ctx   context.Context
	enq   time.Duration
	state atomic.Int32
	msg   chan message[Req, Resp]
}

// Waiter states. A claimed waiter's submitter waits for its message:
// either its answer, or first the batch it leads and must run.
const (
	queued int32 = iota
	claimed
	abandoned
)

type message[Req, Resp any] struct {
	resp Resp
	err  error
	run  *executor[Req, Resp]
}

// executor is one batch slot and the scratch its batches reuse.
type executor[Req, Resp any] struct {
	batch, expired []*waiter[Req, Resp]
	reqs           []Req
}

// New starts a plain FIFO batcher that feeds handler one batch at a time:
// the one-tenant, one-executor case of NewTenants, flushing at MaxBatch
// with no queue bound.
func New[Req, Resp any](cfg Config, handler Handler[Req, Resp]) (*Batcher[Req, Resp], error) {
	return NewTenants(cfg.Sched(), cfg.CoDel, nil, 1, handler)
}

// NewTenants starts a batcher whose buffer is the multi-tenant scheduler
// cfg describes: tenantOf names each request's queue (nil queues every
// request under sched.DefaultTenant), codel, when non-nil, sheds
// standing-queue entries at flush, and up to executors batches (at least
// one) run at once.
func NewTenants[Req, Resp any](cfg sched.Config, codel *overload.CoDel, tenantOf func(Req) string, executors int, handler Handler[Req, Resp]) (*Batcher[Req, Resp], error) {
	if handler == nil {
		return nil, errors.New("batching: nil handler")
	}
	core, err := sched.NewCore[*waiter[Req, Resp]](cfg)
	if err != nil {
		return nil, err
	}
	epoch := time.Now()
	b := &Batcher[Req, Resp]{
		core:     core,
		tenantOf: tenantOf,
		codel:    codel,
		handler:  handler,
		now:      func() time.Duration { return time.Since(epoch) },
		done:     make(chan struct{}),
	}
	b.waiters.New = func() any { return &waiter[Req, Resp]{msg: make(chan message[Req, Resp], 1)} }
	for range max(executors, 1) {
		b.free = append(b.free, &executor[Req, Resp]{})
	}
	b.timer = time.AfterFunc(time.Hour, b.flushTimer)
	b.timer.Stop()
	return b, nil
}

// Pending returns the number of requests submitted but not yet answered —
// the queue-depth signal graceful degradation watermarks consume.
func (b *Batcher[Req, Resp]) Pending() int { return int(b.pending.Load()) }

// Stats snapshots every tenant queue's scheduling counters.
func (b *Batcher[Req, Resp]) Stats() []sched.TenantStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.core.Stats()
}

// Submit enqueues one request and blocks until its response is available,
// its tenant queue sheds it (sched.ErrShed), the request is dropped at
// flush (done context, expired deadline or CoDel shed), or — while it is
// still queued — the context is done or the batcher is closed. A request
// already assembled into a batch is answered by that batch. The calling
// goroutine runs the batches it leads.
func (b *Batcher[Req, Resp]) Submit(ctx context.Context, req Req) (Resp, error) {
	var zero Resp
	var tenant string
	if b.tenantOf != nil {
		tenant = b.tenantOf(req)
	}
	w := b.waiters.Get().(*waiter[Req, Resp])
	w.req, w.ctx = req, ctx
	w.state.Store(queued)
	var deadline time.Duration
	b.mu.Lock()
	w.enq = b.now()
	if dl, ok := ctx.Deadline(); ok {
		deadline = w.enq + time.Until(dl)
	}
	if err := b.core.Enqueue(w.enq, tenant, deadline, w); err != nil {
		b.mu.Unlock()
		b.recycle(w)
		return zero, err
	}
	// Counted only once queued: Pending() == n means n entries made it in.
	b.pending.Add(1)
	defer b.pending.Add(-1)
	b.pump(w.enq)
	b.mu.Unlock()
	ctxDone, closed := ctx.Done(), b.done
	for {
		select {
		case m := <-w.msg:
			if m.run != nil {
				b.run(m.run)
				continue
			}
			b.recycle(w)
			return m.resp, m.err
		case <-ctxDone:
			if w.state.CompareAndSwap(queued, abandoned) {
				return zero, ctx.Err()
			}
			ctxDone = nil
		case <-closed:
			if w.state.CompareAndSwap(queued, abandoned) {
				return zero, ErrClosed
			}
			closed = nil
		}
	}
}

// Close stops batch formation. Submits still queued receive ErrClosed;
// batches already running finish and answer their requests.
func (b *Batcher[Req, Resp]) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.closed {
		b.closed = true
		b.timer.Stop()
		close(b.done)
	}
}

// pump starts batches while an executor is free and the core is ready
// (target batch reached or flush instant arrived), handing each to its
// first request's goroutine, then arms the timer at the core's next flush
// instant if an executor is still free. It runs under mu on every event
// that can make a batch startable: an arrival, a finished batch, the
// timer. On a batch size of one an arrival that finds an executor free
// starts itself at once. Its sends under mu never block: a claimed
// waiter's channel is empty until its one message arrives (a batch
// leader drains its batch message before it answers itself).
func (b *Batcher[Req, Resp]) pump(now time.Duration) {
	for !b.closed && len(b.free) > 0 && b.core.Ready(now) {
		ex := b.free[len(b.free)-1]
		ex.batch, ex.expired = b.core.Assemble(now, ex.batch[:0], ex.expired[:0])
		b.screen(now, ex)
		if len(ex.batch) > 0 {
			b.free = b.free[:len(b.free)-1]
			ex.batch[0].msg <- message[Req, Resp]{run: ex}
		}
	}
	// With every executor busy, a finishing batch pumps again.
	if at, ok := b.core.NextFlushAt(); ok && !b.closed && len(b.free) > 0 && (!b.armed || at < b.armedAt) {
		b.armed, b.armedAt = true, at
		b.timer.Reset(at - now)
	}
}

func (b *Batcher[Req, Resp]) flushTimer() {
	b.mu.Lock()
	b.armed = false
	b.pump(b.now())
	b.mu.Unlock()
}

// screen claims an assembled batch and answers, without the handler, every
// entry that must not reach it. Entries the core dropped because their
// deadline passed are answered ErrDeadlineExpired. Of the rest, in batch
// order (arrival order within a tenant, so the CoDel controller sees
// head-of-queue sojourns), entries whose context is already done are
// answered their context error and entries the queue discipline sheds are
// answered ErrCoDelDropped. Entries whose submitter has left are recycled.
func (b *Batcher[Req, Resp]) screen(now time.Duration, ex *executor[Req, Resp]) {
	for _, w := range ex.expired {
		if b.claim(w) {
			w.msg <- message[Req, Resp]{err: ErrDeadlineExpired}
		}
	}
	clear(ex.expired)
	kept := ex.batch[:0]
	for _, w := range ex.batch {
		switch {
		case !b.claim(w):
		case w.ctx.Err() != nil:
			w.msg <- message[Req, Resp]{err: w.ctx.Err()}
		case b.codel.ShouldDrop(now - w.enq):
			w.msg <- message[Req, Resp]{err: ErrCoDelDropped}
		default:
			kept = append(kept, w)
		}
	}
	clear(ex.batch[len(kept):])
	ex.batch = kept
}

// claim takes an assembled waiter for answering, or recycles it if its
// submitter has already left.
func (b *Batcher[Req, Resp]) claim(w *waiter[Req, Resp]) bool {
	if w.state.CompareAndSwap(queued, claimed) {
		return true
	}
	b.recycle(w)
	return false
}

// run executes a batch this goroutine leads, answers its requests and
// frees the executor for the next batch.
func (b *Batcher[Req, Resp]) run(ex *executor[Req, Resp]) {
	for _, w := range ex.batch {
		ex.reqs = append(ex.reqs, w.req)
	}
	resps := b.handler(ex.reqs)
	for i, w := range ex.batch {
		w.msg <- message[Req, Resp]{resp: resps[i]}
	}
	clear(ex.batch)
	clear(ex.reqs)
	ex.reqs = ex.reqs[:0]
	b.mu.Lock()
	b.free = append(b.free, ex)
	b.pump(b.now())
	b.mu.Unlock()
}

func (b *Batcher[Req, Resp]) recycle(w *waiter[Req, Resp]) {
	var zero Req
	w.req, w.ctx = zero, nil
	b.waiters.Put(w)
}
