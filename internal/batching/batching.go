// Package batching implements the request-batching plugin of the inference
// server — the Go analogue of the batched-fn Rust crate the paper uses for
// GPU inference. Incoming requests accumulate in a buffer that is flushed to
// a batch handler when the maximum batch size is reached (paper setting:
// 1,024 requests), the flush interval elapses (paper setting: two
// milliseconds), or — new to this implementation — the tightest propagated
// deadline among the buffered requests would otherwise pass.
//
// The flush decision belongs to internal/sched (Core and its Assembly
// policy); this package is the one wall-clock loop that drives it. The
// plain FIFO batcher (New) is a one-tenant sched.Core, the multi-tenant
// scheduler (NewTenants) the same loop over declared tenant queues, and
// the discrete-event simulator drives the same Core from virtual time.
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

// Handler processes one batch of requests and returns one response per
// request, in order. It runs on the batcher's dispatch goroutine: at most
// one batch is in flight at a time, which models an accelerator executing
// one kernel sequence at a time.
type Handler[Req, Resp any] func(batch []Req) []Resp

// Batcher groups individual requests into batches. Create with New or
// NewTenants, submit with Submit, and release resources with Close.
type Batcher[Req, Resp any] struct {
	// mu guards core. Contention is one short critical section per
	// enqueue and per flush — the handler runs outside the lock.
	mu       sync.Mutex
	core     *sched.Core[envelope[Req, Resp]]
	tenantOf func(Req) string
	codel    *overload.CoDel
	handler  Handler[Req, Resp]
	// now is the batcher's monotonic clock (offsets from construction).
	now func() time.Duration
	// kick wakes the dispatch goroutine when an arrival makes the buffer
	// ready or tightens its flush instant (capacity 1: wake-ups coalesce).
	kick    chan struct{}
	done    chan struct{}
	closed  sync.Once
	pending atomic.Int64
}

type envelope[Req, Resp any] struct {
	req   Req
	ctx   context.Context
	enq   time.Duration
	reply chan result[Resp]
}

// result carries either a response or the reason the batcher refused to
// compute one (expired deadline, cancelled context, CoDel shed).
type result[Resp any] struct {
	resp Resp
	err  error
}

// New starts a plain FIFO batcher that feeds handler: the one-tenant case
// of NewTenants, flushing at MaxBatch with no queue bound. Close must be
// called to stop the dispatch goroutine.
func New[Req, Resp any](cfg Config, handler Handler[Req, Resp]) (*Batcher[Req, Resp], error) {
	return NewTenants(sched.Config{MaxBatch: cfg.MaxBatch, FlushEvery: cfg.FlushEvery, DeadlineSlack: cfg.DeadlineSlack}, cfg.CoDel, nil, handler)
}

// NewTenants starts a batcher whose buffer is the multi-tenant scheduler
// cfg describes: tenantOf names each request's queue (nil queues every
// request under sched.DefaultTenant), and codel, when non-nil, sheds
// standing-queue entries at flush. Close must be called to stop the
// dispatch goroutine.
func NewTenants[Req, Resp any](cfg sched.Config, codel *overload.CoDel, tenantOf func(Req) string, handler Handler[Req, Resp]) (*Batcher[Req, Resp], error) {
	if handler == nil {
		return nil, errors.New("batching: nil handler")
	}
	core, err := sched.NewCore[envelope[Req, Resp]](cfg)
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
		kick:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	go b.dispatch()
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

// ExpiredDrops returns how many buffered requests were dropped at flush
// because their deadline had already passed.
func (b *Batcher[Req, Resp]) ExpiredDrops() (n int64) {
	for _, st := range b.Stats() {
		n += st.Expired
	}
	return n
}

// Submit enqueues one request and blocks until its response is available,
// its tenant queue sheds it (sched.ErrShed), the context is done, the
// request is dropped at flush (expired deadline or CoDel shed), or the
// batcher is closed.
func (b *Batcher[Req, Resp]) Submit(ctx context.Context, req Req) (Resp, error) {
	var zero Resp
	select {
	case <-b.done:
		return zero, ErrClosed
	default:
	}
	var tenant string
	if b.tenantOf != nil {
		tenant = b.tenantOf(req)
	}
	env := envelope[Req, Resp]{req: req, ctx: ctx, reply: make(chan result[Resp], 1)}
	var deadline time.Duration
	b.mu.Lock()
	env.enq = b.now()
	if dl, ok := ctx.Deadline(); ok {
		deadline = env.enq + time.Until(dl)
	}
	err := b.core.Enqueue(env.enq, tenant, deadline, env)
	b.mu.Unlock()
	if err != nil {
		return zero, err
	}
	// Counted only once queued: Pending() == n means n entries made it in.
	b.pending.Add(1)
	defer b.pending.Add(-1)
	select {
	case b.kick <- struct{}{}:
	default:
	}
	select {
	case r := <-env.reply:
		return r.resp, r.err
	case <-ctx.Done():
		return zero, ctx.Err()
	case <-b.done:
		return zero, ErrClosed
	}
}

// Close stops the dispatch goroutine. Blocked Submits receive ErrClosed.
func (b *Batcher[Req, Resp]) Close() {
	b.closed.Do(func() { close(b.done) })
}

// dispatch is the single batch-formation goroutine: flush while the core
// is ready, then sleep until its next flush instant or a kick from an
// arrival that may have made it ready or tightened that instant. An
// empty buffer holds no timer at all.
func (b *Batcher[Req, Resp]) dispatch() {
	timer := time.NewTimer(time.Hour)
	armed := true
	disarm := func() {
		if armed && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		armed = false
	}
	for {
		// Read the clock under the lock: no entry is younger than now, so
		// no sojourn CoDel sees is negative.
		b.mu.Lock()
		now := b.now()
		if b.core.Ready(now) {
			batch, expired := b.core.Assemble(now)
			b.mu.Unlock()
			b.flush(now, batch, expired)
			continue
		}
		at, ok := b.core.NextFlushAt()
		b.mu.Unlock()
		disarm()
		if ok {
			timer.Reset(at - now)
			armed = true
		}
		select {
		case <-b.kick:
		case <-timer.C:
			armed = false
		case <-b.done:
			disarm()
			return
		}
	}
}

// flush answers an assembled batch. Entries the core dropped because
// their deadline passed are answered ErrDeadlineExpired. Of the rest, in
// batch order (arrival order within a tenant, so the CoDel controller
// sees head-of-queue sojourns), entries whose context is already done are
// answered their context error and entries the queue discipline sheds are
// answered ErrCoDelDropped. None of them spends handler FLOPs.
func (b *Batcher[Req, Resp]) flush(now time.Duration, batch, expired []envelope[Req, Resp]) {
	for _, env := range expired {
		env.reply <- result[Resp]{err: ErrDeadlineExpired}
	}
	kept := batch[:0]
	for _, env := range batch {
		if err := env.ctx.Err(); err != nil {
			env.reply <- result[Resp]{err: err}
			continue
		}
		if b.codel.ShouldDrop(now - env.enq) {
			env.reply <- result[Resp]{err: ErrCoDelDropped}
			continue
		}
		kept = append(kept, env)
	}
	if len(kept) == 0 {
		return
	}
	reqs := make([]Req, len(kept))
	for i, env := range kept {
		reqs[i] = env.req
	}
	resps := b.handler(reqs)
	for i, env := range kept {
		if i < len(resps) {
			env.reply <- result[Resp]{resp: resps[i]}
		}
	}
}
