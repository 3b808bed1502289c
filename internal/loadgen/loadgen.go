// Package loadgen implements ETUDE's backpressure-aware load generator
// (paper Algorithm 2). It replays synthetic sessions against an inference
// target, ramping the request rate up to a target throughput proportionally
// to elapsed time, spreading requests evenly within one-second ticks, and —
// crucially — tracking the number of pending requests: when backpressure
// builds up (pending ≥ current per-tick rate), the generator pauses instead
// of piling more work onto a struggling server, which lets experiments shut
// down gracefully and reveals the throughput threshold where a model fails.
//
// Like the paper's Java implementation, the generator respects session
// order: the next click of a session is only sent after the response to the
// previous click has been received.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"etude/internal/httpapi"
	"etude/internal/metrics"
	"etude/internal/workload"
)

// Target is the system under test.
type Target interface {
	// Predict sends one recommendation request and blocks until the
	// response arrives. A non-nil error counts as a failed request
	// (timeout or HTTP error).
	Predict(ctx context.Context, req httpapi.PredictRequest) error
}

// Meta describes one response beyond pass/fail.
type Meta struct {
	// Status is the HTTP status code (0 when the transport failed before a
	// response arrived).
	Status int
	// Degraded marks a response served by the server's fallback path.
	Degraded bool
	// Coverage is the shard-coverage fraction reported via X-Coverage
	// (0 when the response carried no coverage header; a value in (0, 1)
	// marks a partial-coverage response).
	Coverage float64
}

// MetaTarget is an optional Target extension reporting response metadata;
// the generator uses it to split outcomes by status class and to count
// degraded responses. Targets without it are treated as 200-or-error.
type MetaTarget interface {
	Target
	PredictMeta(ctx context.Context, req httpapi.PredictRequest) (Meta, error)
}

// Classify maps a request error to its metrics kind: deadline/cancellation
// and 504 (the server dropped the request because its propagated deadline
// expired in queue — the budget is spent either way) → timeout; 429/503
// and transport-level failures (connection refused, reset, injected drop)
// → refused; other 5xx → server; anything else → other.
func Classify(err error) metrics.ErrorKind {
	var se *httpapi.StatusError
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return metrics.KindTimeout
	case errors.As(err, &se):
		switch {
		case se.Code == http.StatusTooManyRequests || se.Code == http.StatusServiceUnavailable:
			return metrics.KindRefused
		case se.Code == http.StatusGatewayTimeout:
			return metrics.KindTimeout
		case se.Code >= 500:
			return metrics.KindServer
		default:
			return metrics.KindOther
		}
	default:
		return metrics.KindRefused
	}
}

// retryable reports whether a failed attempt is worth retrying: shed load
// and transient server failures are; timeouts (the client already waited a
// full deadline) and client errors are not.
func retryable(err error) bool {
	kind := Classify(err)
	return kind == metrics.KindRefused || kind == metrics.KindServer
}

// SessionSource supplies the synthetic sessions to replay.
type SessionSource interface {
	// NextSession returns the next session to replay. It must be safe for
	// use from the generator's single scheduling goroutine.
	NextSession() workload.Session
}

// Config controls one load-generation run.
type Config struct {
	// TargetRate is r: the request rate (per second) reached at the end of
	// the ramp-up.
	TargetRate float64
	// Duration is d: the total run length; the rate ramps from 0 to
	// TargetRate linearly across it.
	Duration time.Duration
	// Tick is the scheduling quantum (paper: one second). Shorter ticks
	// let tests run quickly.
	Tick time.Duration
	// RequestTimeout bounds each in-flight request attempt.
	RequestTimeout time.Duration
	// SLO, when positive, is the overall latency budget of one logical
	// request: an absolute deadline of first-attempt-start + SLO is shared
	// across all retry attempts (the budget does not reset per attempt),
	// propagated to the server in the X-Deadline header, and retries whose
	// backoff cannot fit inside the remaining budget are abandoned as
	// budget-exhausted instead of sleeping past the deadline. 0 disables
	// the overall budget (attempts are bounded by RequestTimeout alone).
	SLO time.Duration
	// Tenant labels every request with an X-Tenant value (header and body)
	// so the server's multi-tenant scheduler can key its queues, and labels
	// the recorder's per-tick series. Retries reuse the original request,
	// so all attempts of one logical request carry the same tenant. Empty
	// means anonymous (the scheduler's default queue).
	Tenant string
	// DrainTimeout bounds the wait for stragglers after the last tick.
	// Requests still outstanding when it expires are recorded as timeout
	// failures (never dropped from the denominator).
	DrainTimeout time.Duration
	// Retry configures client-side retries (zero value: no retries).
	Retry RetryConfig
}

// RetryConfig controls client-side retries of shed or transiently failed
// requests.
type RetryConfig struct {
	// MaxAttempts bounds total attempts per request including the first;
	// 0 or 1 disables retries.
	MaxAttempts int
	// BaseBackoff is the wait before the first retry, doubling per attempt
	// (default 10ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff growth (default 500ms).
	MaxBackoff time.Duration
	// Budget caps retries at Budget×(requests sent) run-wide — a token
	// bucket that stops retry storms from amplifying an outage (default
	// 0.2 when retries are enabled).
	Budget float64
	// Seed drives the backoff jitter.
	Seed int64
}

func (r RetryConfig) withDefaults() RetryConfig {
	if r.MaxAttempts < 1 {
		r.MaxAttempts = 1
	}
	if r.BaseBackoff <= 0 {
		r.BaseBackoff = 10 * time.Millisecond
	}
	if r.MaxBackoff <= 0 {
		r.MaxBackoff = 500 * time.Millisecond
	}
	if r.Budget <= 0 {
		r.Budget = 0.2
	}
	return r
}

// backoff returns the pre-jitter wait before retry number `retry` (1-based).
func (r RetryConfig) backoff(retry int) time.Duration {
	d := r.BaseBackoff
	for i := 1; i < retry; i++ {
		d *= 2
		if d >= r.MaxBackoff {
			return r.MaxBackoff
		}
	}
	if d > r.MaxBackoff {
		d = r.MaxBackoff
	}
	return d
}

func (c Config) withDefaults() Config {
	if c.Tick <= 0 {
		c.Tick = time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	c.Retry = c.Retry.withDefaults()
	return c
}

func (c Config) validate() error {
	if c.TargetRate <= 0 {
		return fmt.Errorf("loadgen: target rate must be positive, got %v", c.TargetRate)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("loadgen: duration must be positive, got %v", c.Duration)
	}
	return nil
}

// Result summarises a load-generation run.
type Result struct {
	// Recorder holds all latency and error measurements.
	Recorder *metrics.Recorder
	// Outcomes breaks responses down by status class, error kind, degraded
	// flag, retries and stragglers (a copy of Recorder.Outcomes()).
	Outcomes metrics.OutcomeCounts
	// Backpressured counts scheduling slots skipped because too many
	// requests were pending — the "graceful degradation" signal.
	Backpressured int64
	// Completed is true when the full duration elapsed (vs. context
	// cancellation).
	Completed bool
}

// Run executes Algorithm 2 against the target. It returns when the duration
// has elapsed and in-flight requests have drained (or ctx is cancelled).
func Run(ctx context.Context, cfg Config, src SessionSource, target Target) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if src == nil || target == nil {
		return nil, errors.New("loadgen: nil session source or target")
	}

	rec := metrics.NewRecorder()
	rec.SetTenant(cfg.Tenant)
	res := &Result{Recorder: rec}
	feed := newFeeder(src)
	var pending atomic.Int64
	var wg sync.WaitGroup

	// flightCtx parents every request attempt; cancelling it at drain
	// expiry aborts stragglers so they fail fast instead of leaking.
	flightCtx, abortFlights := context.WithCancel(context.Background())
	defer abortFlights()

	// Each logical request records its outcome exactly once: either its
	// goroutine finishes, or the drain sweep declares it a straggler.
	// Whoever removes it from outstanding owns the record, and records it
	// before releasing outMu, so once the sweep holds outMu no request
	// goroutine is left that can still record.
	type reqState struct{ tick int }
	var outMu sync.Mutex
	outstanding := make(map[*reqState]struct{})

	// Retry budget in fixed-point millionths: each original request earns
	// Budget tokens; each retry spends one.
	const tokenUnit = 1_000_000
	var retryTokens atomic.Int64
	earn := int64(cfg.Retry.Budget * tokenUnit)
	spendToken := func() bool {
		for {
			cur := retryTokens.Load()
			if cur < tokenUnit {
				return false
			}
			if retryTokens.CompareAndSwap(cur, cur-tokenUnit) {
				return true
			}
		}
	}
	var jitterMu sync.Mutex
	jitterRng := rand.New(rand.NewSource(cfg.Retry.Seed))
	jitter := func(d time.Duration) time.Duration {
		jitterMu.Lock()
		defer jitterMu.Unlock()
		return time.Duration(jitterRng.Int63n(int64(d)/2 + 1))
	}
	predictMeta := func(ctx context.Context, req httpapi.PredictRequest) (Meta, error) {
		if mt, ok := target.(MetaTarget); ok {
			return mt.PredictMeta(ctx, req)
		}
		if err := target.Predict(ctx, req); err != nil {
			return Meta{}, err
		}
		return Meta{Status: http.StatusOK}, nil
	}

	ticks := int(cfg.Duration / cfg.Tick)
	if ticks < 1 {
		ticks = 1
	}
	start := time.Now()

mainLoop:
	for t := 0; t < ticks; t++ { // Main tick loop
		select {
		case <-ctx.Done():
			break mainLoop
		default:
		}
		tickEnd := start.Add(time.Duration(t+1) * cfg.Tick)
		// TIMEPROP_RAMPUP: the per-tick rate grows proportionally to the
		// time spent relative to the benchmark duration.
		frac := float64(t+1) / float64(ticks)
		rc := int(cfg.TargetRate * cfg.Tick.Seconds() * frac)
		if rc < 1 {
			rc = 1
		}

	requestLoop:
		for i := 0; i < rc; i++ { // Request generation loop
			// Backpressure handling: wait while too much work is pending.
			for pending.Load() >= int64(rc) {
				if time.Now().After(tickEnd) {
					res.Backpressured += int64(rc - i)
					continue mainLoop
				}
				select {
				case <-ctx.Done():
					break mainLoop
				case <-time.After(time.Millisecond):
				}
			}
			if time.Now().After(tickEnd) {
				res.Backpressured += int64(rc - i)
				continue mainLoop
			}

			req, done := feed.next()
			req.Tenant = cfg.Tenant
			pending.Add(1)
			rec.RecordSent(t)
			retryTokens.Add(earn)
			st := &reqState{tick: t}
			outMu.Lock()
			outstanding[st] = struct{}{}
			outMu.Unlock()
			wg.Add(1)
			go func(tick int) { // SCHEDULE_REQUEST_ASYNC
				defer wg.Done()
				defer pending.Add(-1)
				reqStart := time.Now()
				// The SLO budget is one absolute deadline for the whole
				// logical request: every retry attempt runs under it, so
				// attempt N inherits whatever budget attempts 1..N-1 left.
				overall := flightCtx
				if cfg.SLO > 0 {
					var cancelSLO context.CancelFunc
					overall, cancelSLO = context.WithDeadline(flightCtx, reqStart.Add(cfg.SLO))
					defer cancelSLO()
				}
				var meta Meta
				var err error
				budgetExhausted := false
				for attempt := 1; ; attempt++ {
					rctx, cancel := context.WithTimeout(overall, cfg.RequestTimeout)
					meta, err = predictMeta(rctx, req)
					cancel()
					if err == nil || flightCtx.Err() != nil ||
						attempt >= cfg.Retry.MaxAttempts || !retryable(err) {
						break
					}
					if overall.Err() != nil {
						// The SLO deadline passed during the attempt.
						budgetExhausted = cfg.SLO > 0
						break
					}
					backoff := cfg.Retry.backoff(attempt)
					sleep := backoff + jitter(backoff)
					if dl, ok := overall.Deadline(); ok && time.Until(dl) <= sleep {
						// Sleeping the backoff would outlive the budget: the
						// next attempt could never be answered in time, so
						// abandon now — before spending a retry token — and
						// record the truth (out of time, not server error).
						budgetExhausted = cfg.SLO > 0
						break
					}
					if !spendToken() {
						break
					}
					rec.RecordRetry(tick)
					select {
					case <-time.After(sleep):
					case <-overall.Done():
					}
				}
				elapsed := time.Since(reqStart)
				outMu.Lock()
				if _, mine := outstanding[st]; !mine {
					outMu.Unlock()
					return // the drain sweep already counted this straggler
				}
				delete(outstanding, st)
				if meta.Status != 0 {
					rec.RecordStatus(tick, meta.Status)
				}
				switch {
				case err != nil && budgetExhausted:
					rec.RecordBudgetExhausted(tick)
				case err != nil:
					rec.RecordErrorKind(tick, Classify(err))
				case meta.Coverage > 0 && meta.Coverage < 1:
					// Partial-coverage success: a distinct outcome from the
					// fallback-responder degradation below — the model ran,
					// just over less catalog.
					rec.RecordPartial(tick, elapsed, meta.Coverage)
				case meta.Degraded:
					rec.RecordDegraded(tick, elapsed)
				default:
					rec.RecordLatency(tick, elapsed)
				}
				outMu.Unlock()
				done(err == nil)
			}(t)

			// Evenly spread the remaining requests over the rest of the tick.
			if left := rc - i - 1; left > 0 {
				if remaining := time.Until(tickEnd); remaining > 0 {
					select {
					case <-ctx.Done():
						break requestLoop
					case <-time.After(remaining / time.Duration(left+1)):
					}
				}
			}
		}
		// Wait until the next tick boundary.
		if remaining := time.Until(tickEnd); remaining > 0 {
			select {
			case <-ctx.Done():
				break mainLoop
			case <-time.After(remaining):
			}
		}
	}
	res.Completed = ctx.Err() == nil

	// Graceful shutdown: wait for stragglers, bounded. Requests still
	// outstanding when the drain window expires are aborted and recorded
	// as timeout failures — they were sent, so they stay in the
	// denominator instead of silently vanishing.
	drained := make(chan struct{})
	go func() {
		wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(cfg.DrainTimeout):
		// Claim every unrecorded request first, then abort: a goroutine
		// woken by the abort finds its request claimed and records nothing,
		// so the outcomes below are final.
		outMu.Lock()
		for st := range outstanding {
			delete(outstanding, st)
			rec.RecordStraggler(st.tick)
		}
		outMu.Unlock()
		abortFlights()
	}
	res.Outcomes = rec.Outcomes()
	return res, nil
}

// feeder hands out requests while preserving session order: a session's
// next click is only eligible after the previous click was answered.
type feeder struct {
	mu       sync.Mutex
	src      SessionSource
	eligible []*cursor
	nextID   int64
}

type cursor struct {
	id      int64
	session workload.Session
	pos     int
}

func newFeeder(src SessionSource) *feeder {
	return &feeder{src: src}
}

// next returns the request for some session's next click and a completion
// callback that re-arms the session (or retires it after its last click or
// a failure).
func (f *feeder) next() (httpapi.PredictRequest, func(ok bool)) {
	f.mu.Lock()
	var c *cursor
	if n := len(f.eligible); n > 0 {
		c = f.eligible[n-1]
		f.eligible = f.eligible[:n-1]
	} else {
		f.nextID++
		c = &cursor{id: f.nextID, session: f.src.NextSession()}
		for len(c.session) == 0 { // skip degenerate sessions
			c.session = f.src.NextSession()
		}
	}
	f.mu.Unlock()

	req := httpapi.PredictRequest{
		SessionID: c.id,
		// One logical request = one trace: the retry loop reuses this req
		// verbatim, so every attempt carries the same id and the server-side
		// trace aggregates across attempts instead of splitting them.
		RequestID: fmt.Sprintf("s%d-%d", c.id, c.pos),
		Items:     append([]int64(nil), c.session[:c.pos+1]...),
	}
	done := func(ok bool) {
		f.mu.Lock()
		defer f.mu.Unlock()
		c.pos++
		// Only continue the session on success (the paper's generator only
		// sends the next interaction after receiving a response; a timed
		// out session is abandoned like a frustrated visitor).
		if ok && c.pos < len(c.session) {
			f.eligible = append(f.eligible, c)
		}
	}
	return req, done
}
