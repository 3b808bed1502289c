package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"etude/internal/httpapi"
	"etude/internal/metrics"
	"etude/internal/model"
	"etude/internal/server"
	"etude/internal/workload"
)

// fixedSessions yields the given sessions round-robin.
type fixedSessions struct {
	mu       sync.Mutex
	sessions []workload.Session
	i        int
}

func (f *fixedSessions) NextSession() workload.Session {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.sessions[f.i%len(f.sessions)]
	f.i++
	return s
}

func fastConfig(rate float64) Config {
	return Config{
		TargetRate:     rate,
		Duration:       500 * time.Millisecond,
		Tick:           50 * time.Millisecond,
		RequestTimeout: 200 * time.Millisecond,
		DrainTimeout:   time.Second,
	}
}

func TestConfigValidation(t *testing.T) {
	src := &fixedSessions{sessions: []workload.Session{{1}}}
	tgt := FuncTarget(func(ctx context.Context, r httpapi.PredictRequest) error { return nil })
	if _, err := Run(context.Background(), Config{TargetRate: 0, Duration: time.Second}, src, tgt); err == nil {
		t.Fatalf("zero rate accepted")
	}
	if _, err := Run(context.Background(), Config{TargetRate: 10, Duration: 0}, src, tgt); err == nil {
		t.Fatalf("zero duration accepted")
	}
	if _, err := Run(context.Background(), fastConfig(10), nil, tgt); err == nil {
		t.Fatalf("nil source accepted")
	}
	if _, err := Run(context.Background(), fastConfig(10), src, nil); err == nil {
		t.Fatalf("nil target accepted")
	}
}

func TestRunSendsRequests(t *testing.T) {
	var count atomic.Int64
	tgt := FuncTarget(func(ctx context.Context, r httpapi.PredictRequest) error {
		count.Add(1)
		return nil
	})
	src := &fixedSessions{sessions: []workload.Session{{1, 2, 3}}}
	res, err := Run(context.Background(), fastConfig(200), src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("run did not complete")
	}
	if count.Load() == 0 {
		t.Fatalf("no requests sent")
	}
	if res.Recorder.Sent() != count.Load() {
		t.Fatalf("sent %d but recorded %d", count.Load(), res.Recorder.Sent())
	}
	if res.Recorder.Overall().Count != count.Load() {
		t.Fatalf("latencies %d != sent %d", res.Recorder.Overall().Count, count.Load())
	}
}

// TestRampUp: the request rate in early ticks must be well below the rate
// in late ticks (time-proportional ramp-up).
func TestRampUp(t *testing.T) {
	tgt := FuncTarget(func(ctx context.Context, r httpapi.PredictRequest) error { return nil })
	src := &fixedSessions{sessions: []workload.Session{{1}}}
	cfg := Config{
		TargetRate:     400,
		Duration:       time.Second,
		Tick:           100 * time.Millisecond,
		RequestTimeout: 100 * time.Millisecond,
	}
	res, err := Run(context.Background(), cfg, src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	series := res.Recorder.Series()
	if len(series) < 8 {
		t.Fatalf("too few ticks recorded: %d", len(series))
	}
	early := series[0].Sent + series[1].Sent
	late := series[len(series)-2].Sent + series[len(series)-1].Sent
	if late < 3*early {
		t.Fatalf("no ramp-up: early %d vs late %d", early, late)
	}
}

// TestBackpressure: a target that answers slowly must trigger backpressure
// rather than unbounded request pileup.
func TestBackpressure(t *testing.T) {
	var inFlight, maxInFlight atomic.Int64
	tgt := FuncTarget(func(ctx context.Context, r httpapi.PredictRequest) error {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			prev := maxInFlight.Load()
			if cur <= prev || maxInFlight.CompareAndSwap(prev, cur) {
				break
			}
		}
		select {
		case <-time.After(150 * time.Millisecond): // slower than the tick
		case <-ctx.Done():
			return ctx.Err()
		}
		return nil
	})
	src := &fixedSessions{sessions: []workload.Session{{1}}}
	cfg := Config{
		TargetRate:     1000,
		Duration:       600 * time.Millisecond,
		Tick:           50 * time.Millisecond,
		RequestTimeout: time.Second,
		DrainTimeout:   2 * time.Second,
	}
	res, err := Run(context.Background(), cfg, src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backpressured == 0 {
		t.Fatalf("slow target produced no backpressure")
	}
	// Pending must never exceed the maximum per-tick rate.
	if maxInFlight.Load() > 1000*50/1000+5 {
		t.Fatalf("in-flight exploded to %d", maxInFlight.Load())
	}
}

// TestSessionOrderPreserved: the generator must never send click n+1 of a
// session before click n was answered, and prefixes must grow by one.
func TestSessionOrderPreserved(t *testing.T) {
	var mu sync.Mutex
	lastLen := map[int64]int{}
	violation := false
	tgt := FuncTarget(func(ctx context.Context, r httpapi.PredictRequest) error {
		mu.Lock()
		if prev, ok := lastLen[r.SessionID]; ok && len(r.Items) != prev+1 {
			violation = true
		}
		lastLen[r.SessionID] = len(r.Items)
		mu.Unlock()
		return nil
	})
	src := &fixedSessions{sessions: []workload.Session{{10, 20, 30, 40}}}
	if _, err := Run(context.Background(), fastConfig(100), src, tgt); err != nil {
		t.Fatal(err)
	}
	if violation {
		t.Fatalf("session prefix order violated")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lastLen) == 0 {
		t.Fatalf("no sessions replayed")
	}
}

// TestErrorsAbandonSessions: a failed click retires the session; the next
// request for that stream starts a new session.
func TestErrorsAbandonSession(t *testing.T) {
	var calls atomic.Int64
	tgt := FuncTarget(func(ctx context.Context, r httpapi.PredictRequest) error {
		calls.Add(1)
		if len(r.Items) >= 2 {
			t.Errorf("session continued after error: %v", r.Items)
		}
		return context.DeadlineExceeded
	})
	src := &fixedSessions{sessions: []workload.Session{{1, 2, 3}}}
	res, err := Run(context.Background(), fastConfig(50), src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recorder.Errors() != calls.Load() {
		t.Fatalf("errors %d != calls %d", res.Recorder.Errors(), calls.Load())
	}
}

func TestContextCancellation(t *testing.T) {
	tgt := FuncTarget(func(ctx context.Context, r httpapi.PredictRequest) error { return nil })
	src := &fixedSessions{sessions: []workload.Session{{1}}}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	cfg := Config{TargetRate: 10, Duration: 10 * time.Second, Tick: 50 * time.Millisecond}
	start := time.Now()
	res, err := Run(ctx, cfg, src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatalf("cancellation ignored")
	}
	if res.Completed {
		t.Fatalf("cancelled run must not report completion")
	}
}

// TestAgainstRealServer wires the full live path: HTTP load generator →
// inference server → model, asserting zero errors and sane latencies.
func TestAgainstRealServer(t *testing.T) {
	m, err := model.New("stamp", model.Config{CatalogSize: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(m, server.Options{Workers: 4, JIT: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	tgt := NewHTTPTarget(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tgt.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	gen, err := workload.NewGenerator(workload.Spec{
		CatalogSize: 500, NumClicks: 1, AlphaLength: 2.2, AlphaClicks: 1.6, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), fastConfig(100), gen, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recorder.Errors() != 0 {
		t.Fatalf("%d errors against healthy server", res.Recorder.Errors())
	}
	snap := res.Recorder.Overall()
	if snap.Count == 0 {
		t.Fatalf("no latencies recorded")
	}
	if snap.P90 > 100*time.Millisecond {
		t.Fatalf("p90 %v against a local tiny model", snap.P90)
	}
}

// TestScheduleAccuracy: against an instant target, the generator must send
// approximately the planned ramp total: Σ_t rate·tick·(t+1)/ticks.
func TestScheduleAccuracy(t *testing.T) {
	tgt := FuncTarget(func(ctx context.Context, r httpapi.PredictRequest) error { return nil })
	src := &fixedSessions{sessions: []workload.Session{{1}}}
	cfg := Config{
		TargetRate:     300,
		Duration:       time.Second,
		Tick:           100 * time.Millisecond,
		RequestTimeout: time.Second,
	}
	res, err := Run(context.Background(), cfg, src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	planned := int64(0)
	ticks := int(cfg.Duration / cfg.Tick)
	for i := 1; i <= ticks; i++ {
		planned += int64(cfg.TargetRate * cfg.Tick.Seconds() * float64(i) / float64(ticks))
	}
	sent := res.Recorder.Sent()
	if sent < planned*8/10 || sent > planned*11/10 {
		t.Fatalf("sent %d, planned %d — schedule drifting", sent, planned)
	}
}

// TestHTTPTargetErrorStatuses: non-200 responses count as errors.
func TestHTTPTargetErrorStatuses(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	tgt := NewHTTPTarget(ts.URL)
	if err := tgt.Predict(context.Background(), httpapi.PredictRequest{Items: []int64{1}}); err == nil {
		t.Fatalf("500 response must be an error")
	}
}

// TestHTTPTargetUnreachable: connection failures surface as errors, not
// panics.
func TestHTTPTargetUnreachable(t *testing.T) {
	tgt := NewHTTPTarget("http://127.0.0.1:1")
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if err := tgt.Predict(ctx, httpapi.PredictRequest{Items: []int64{1}}); err == nil {
		t.Fatalf("unreachable host must error")
	}
}

func TestWaitReadyTimesOut(t *testing.T) {
	tgt := NewHTTPTarget("http://127.0.0.1:1")
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := tgt.WaitReady(ctx); err == nil {
		t.Fatalf("WaitReady against nothing must time out")
	}
}

// TestInferenceDurationCollection: the target harvests the server-side
// inference duration header, which must be at most the end-to-end latency.
func TestInferenceDurationCollection(t *testing.T) {
	m, err := model.New("core", model.Config{CatalogSize: 2_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(m, server.Options{Workers: 2, JIT: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	tgt := NewHTTPTarget(ts.URL)
	hist := metrics.NewHistogram()
	tgt.CollectInferenceDurations(hist)

	src := &fixedSessions{sessions: []workload.Session{{1, 2, 3}}}
	res, err := Run(context.Background(), fastConfig(100), src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if hist.Count() == 0 {
		t.Fatalf("no inference durations collected")
	}
	if hist.Count() != res.Recorder.Overall().Count {
		t.Fatalf("collected %d inference durations for %d responses", hist.Count(), res.Recorder.Overall().Count)
	}
	// Server-side time must not exceed end-to-end time (it is a component
	// of it); compare the medians with quantisation slack.
	if float64(hist.Quantile(0.5)) > float64(res.Recorder.Overall().P50)*1.1 {
		t.Fatalf("server p50 %v exceeds end-to-end p50 %v", hist.Quantile(0.5), res.Recorder.Overall().P50)
	}
}

// TestDrainTimeoutCountsStragglers pins the accounting contract of the
// drain window: requests still in flight when it expires are recorded as
// failures — they stay in the denominator instead of silently vanishing
// from the run's totals.
func TestDrainTimeoutCountsStragglers(t *testing.T) {
	var sent atomic.Int64
	tgt := FuncTarget(func(ctx context.Context, r httpapi.PredictRequest) error {
		sent.Add(1)
		<-ctx.Done() // hang until aborted: a server that never answers
		return ctx.Err()
	})
	src := &fixedSessions{sessions: []workload.Session{{1, 2, 3}}}
	cfg := Config{
		TargetRate:     100,
		Duration:       300 * time.Millisecond,
		Tick:           50 * time.Millisecond,
		RequestTimeout: time.Minute, // outlives the drain window
		DrainTimeout:   100 * time.Millisecond,
	}
	start := time.Now()
	res, err := Run(context.Background(), cfg, src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > cfg.Duration+cfg.DrainTimeout+2*time.Second {
		t.Fatalf("drain did not bound the run: took %v", elapsed)
	}
	if !res.Completed {
		t.Fatal("run should complete despite stragglers")
	}
	n := sent.Load()
	if n == 0 {
		t.Fatal("no requests issued")
	}
	if got := res.Recorder.Errors(); got != n {
		t.Fatalf("errors = %d, want every one of the %d hung requests", got, n)
	}
	// Every hung request is a timeout; at least one was swept by the drain
	// expiry itself (the others may have raced their own abort first).
	if res.Outcomes.Timeouts != n {
		t.Fatalf("timeouts = %d, want %d\n%v", res.Outcomes.Timeouts, n, res.Outcomes)
	}
	if res.Outcomes.Stragglers == 0 {
		t.Fatal("no stragglers recorded at drain expiry")
	}
	// The denominator is intact: sent == completed + errors.
	var series int64
	for _, ts := range res.Recorder.Series() {
		series += ts.Sent
	}
	if series != n {
		t.Fatalf("per-tick sent %d != issued %d", series, n)
	}
}

// TestRequestIDSharedAcrossRetries: every request carries a non-empty
// RequestID, and all retry attempts of one logical request reuse it — the
// server-side trace then aggregates a retried request into one span instead
// of splitting its attempts.
func TestRequestIDSharedAcrossRetries(t *testing.T) {
	var mu sync.Mutex
	attempts := map[string]int{}
	tgt := FuncTarget(func(ctx context.Context, r httpapi.PredictRequest) error {
		mu.Lock()
		defer mu.Unlock()
		if r.RequestID == "" {
			t.Error("request sent without a RequestID")
			return nil
		}
		attempts[r.RequestID]++
		if attempts[r.RequestID] == 1 {
			return &httpapi.StatusError{Code: http.StatusServiceUnavailable} // retryable
		}
		return nil
	})
	src := &fixedSessions{sessions: []workload.Session{{1, 2, 3}}}
	cfg := fastConfig(50)
	cfg.Retry = RetryConfig{MaxAttempts: 3, BaseBackoff: time.Millisecond, Budget: 10}
	if _, err := Run(context.Background(), cfg, src, tgt); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	retried := 0
	for _, n := range attempts {
		if n >= 2 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatalf("no logical request was retried under the same RequestID: %v", attempts)
	}
}

// TestSLODeadlineSharedAcrossRetries: with Config.SLO set, every retry
// attempt of one logical request runs under the same absolute deadline —
// the budget does not reset per attempt.
func TestSLODeadlineSharedAcrossRetries(t *testing.T) {
	var mu sync.Mutex
	deadlines := map[string][]time.Time{}
	tgt := FuncTarget(func(ctx context.Context, r httpapi.PredictRequest) error {
		dl, ok := ctx.Deadline()
		if !ok {
			t.Error("attempt context carries no deadline despite SLO")
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		deadlines[r.RequestID] = append(deadlines[r.RequestID], dl)
		if len(deadlines[r.RequestID]) == 1 {
			return &httpapi.StatusError{Code: http.StatusServiceUnavailable}
		}
		return nil
	})
	src := &fixedSessions{sessions: []workload.Session{{1, 2, 3}}}
	cfg := fastConfig(50)
	cfg.SLO = 150 * time.Millisecond
	cfg.RequestTimeout = 10 * time.Second // so the SLO is the binding deadline
	cfg.Retry = RetryConfig{MaxAttempts: 3, BaseBackoff: time.Millisecond, Budget: 10}
	if _, err := Run(context.Background(), cfg, src, tgt); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	shared := 0
	for id, dls := range deadlines {
		for i := 1; i < len(dls); i++ {
			if !dls[i].Equal(dls[0]) {
				t.Fatalf("request %s: attempt %d deadline %v differs from first %v — budget reset per attempt", id, i+1, dls[i], dls[0])
			}
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no logical request was retried; the shared-deadline property went unexercised")
	}
}

// TestBackoffClampedToBudget: when the retry backoff cannot fit inside the
// remaining SLO budget, the request is abandoned as budget-exhausted — no
// sleep past the deadline, no generic server-error accounting.
func TestBackoffClampedToBudget(t *testing.T) {
	var calls atomic.Int64
	tgt := FuncTarget(func(ctx context.Context, r httpapi.PredictRequest) error {
		calls.Add(1)
		return &httpapi.StatusError{Code: http.StatusServiceUnavailable} // always retryable
	})
	src := &fixedSessions{sessions: []workload.Session{{1}}}
	cfg := fastConfig(20)
	cfg.SLO = 50 * time.Millisecond
	// Backoff (200ms) always exceeds the 50ms budget: every failed request
	// must stop after its first attempt with a budget-exhausted outcome.
	cfg.Retry = RetryConfig{MaxAttempts: 5, BaseBackoff: 200 * time.Millisecond, MaxBackoff: 200 * time.Millisecond, Budget: 10}
	start := time.Now()
	res, err := Run(context.Background(), cfg, src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes.BudgetExhausted == 0 {
		t.Fatalf("no budget-exhausted outcomes recorded: %+v", res.Outcomes)
	}
	if res.Outcomes.Retries != 0 {
		t.Fatalf("retries = %d, want 0 (backoff can never fit the budget)", res.Outcomes.Retries)
	}
	if res.Outcomes.ServerErrors != 0 || res.Outcomes.Refused != 0 {
		t.Fatalf("budget exhaustion misrecorded as generic errors: %+v", res.Outcomes)
	}
	if res.Outcomes.Timeouts != res.Outcomes.BudgetExhausted {
		t.Fatalf("budget-exhausted requests must count as timeouts: %+v", res.Outcomes)
	}
	// The run must not have slept 200ms per request: total wall time stays
	// near the configured duration + drain, not attempts × backoff.
	if elapsed := time.Since(start); elapsed > cfg.Duration+cfg.DrainTimeout+time.Second {
		t.Fatalf("run took %v — backoff slept past the budget", elapsed)
	}
	if calls.Load() == 0 {
		t.Fatal("target never called")
	}
}

// TestHTTPTargetSetsDeadlineHeader: the wire target stamps the context
// deadline as the X-Deadline header.
func TestHTTPTargetSetsDeadlineHeader(t *testing.T) {
	var mu sync.Mutex
	var got []time.Time
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dl, ok := httpapi.DeadlineHeader(r.Header); ok {
			mu.Lock()
			got = append(got, dl)
			mu.Unlock()
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	tgt := NewHTTPTarget(ts.URL)

	want := time.Now().Add(time.Minute)
	ctx, cancel := context.WithDeadline(context.Background(), want)
	defer cancel()
	if err := tgt.Predict(ctx, httpapi.PredictRequest{Items: []int64{1}}); err != nil {
		t.Fatal(err)
	}
	// No deadline on the context → no header.
	if err := tgt.Predict(context.Background(), httpapi.PredictRequest{Items: []int64{1}}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("X-Deadline stamped on %d of 2 requests, want exactly the one with a deadline", len(got))
	}
	if !got[0].Equal(want) {
		t.Fatalf("X-Deadline = %v, want %v", got[0], want)
	}
}

// TestHTTPTargetSetsRequestIDHeader: the wire target forwards the request id
// as the X-Request-ID header, and distinct clicks get distinct ids.
func TestHTTPTargetSetsRequestIDHeader(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]bool{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.Header.Get(httpapi.HeaderRequestID)] = true
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	tgt := NewHTTPTarget(ts.URL)
	for i, id := range []string{"s1-0", "s1-1"} {
		req := httpapi.PredictRequest{SessionID: 1, RequestID: id, Items: []int64{int64(i)}}
		if err := tgt.Predict(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if !seen["s1-0"] || !seen["s1-1"] {
		t.Fatalf("X-Request-ID headers not received, saw %v", seen)
	}
}

// BenchmarkAblationBackpressure contrasts the backpressure-aware load
// generator with a naive open-loop generator against an overloaded target:
// the naive loop piles up unbounded in-flight work while Algorithm 2 keeps
// it bounded and sheds load gracefully.
func BenchmarkAblationBackpressure(b *testing.B) {
	slowTarget := func() (Target, *int64) {
		var inFlight, maxInFlight int64
		var mu sync.Mutex
		return FuncTarget(func(ctx context.Context, r httpapi.PredictRequest) error {
			mu.Lock()
			inFlight++
			if inFlight > maxInFlight {
				maxInFlight = inFlight
			}
			mu.Unlock()
			defer func() { mu.Lock(); inFlight--; mu.Unlock() }()
			select {
			case <-time.After(800 * time.Millisecond): // far slower than the offered rate
			case <-ctx.Done():
				return ctx.Err()
			}
			return nil
		}), &maxInFlight
	}
	src := fixedSessions{sessions: []workload.Session{{1, 2}}}

	b.Run("algorithm2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tgt, maxInFlight := slowTarget()
			res, err := Run(context.Background(), Config{
				TargetRate: 500, Duration: time.Second, Tick: 100 * time.Millisecond,
				RequestTimeout: 2 * time.Second, DrainTimeout: 3 * time.Second,
			}, &src, tgt)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(*maxInFlight), "max-inflight")
			b.ReportMetric(float64(res.Backpressured), "shed")
		}
	})
	b.Run("openloop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tgt, maxInFlight := slowTarget()
			var wg sync.WaitGroup
			for r := 0; r < 500; r++ { // one second at 500 req/s, fired blind
				wg.Add(1)
				go func() {
					defer wg.Done()
					ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
					defer cancel()
					_ = tgt.Predict(ctx, httpapi.PredictRequest{Items: []int64{1}})
				}()
				time.Sleep(2 * time.Millisecond)
			}
			wg.Wait()
			b.ReportMetric(float64(*maxInFlight), "max-inflight")
		}
	})
}
