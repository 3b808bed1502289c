package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"etude/internal/batching"
	"etude/internal/httpapi"
	"etude/internal/leakcheck"
	"etude/internal/metrics"
	"etude/internal/overload"
	"etude/internal/sched"
	"etude/internal/shard"
	"etude/internal/trace"
)

// predictWithDeadline posts a prediction stamped with an absolute deadline.
func predictWithDeadline(t *testing.T, ts *httptest.Server, deadline time.Time, req httpapi.PredictRequest) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+httpapi.PredictPath, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	httpapi.SetDeadlineHeader(hreq.Header, deadline)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestExpiredDeadlineAnswered504BeforeEncoder(t *testing.T) {
	leakcheck.Check(t)
	tr := trace.New(trace.Options{})
	s, _ := New(testModel(t), Options{Tracer: tr})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := predictWithDeadline(t, ts, time.Now().Add(-time.Second), httpapi.PredictRequest{Items: []int64{1, 2}})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 for an already-expired deadline", resp.StatusCode)
	}
	if got := s.DeadlineExpired(); got != 1 {
		t.Fatalf("DeadlineExpired() = %d, want 1", got)
	}
	// The whole point of dropping expired work: zero encoder FLOPs spent.
	if n := tr.StageSnapshot(trace.StageEncoderForward).Count; n != 0 {
		t.Fatalf("encoder-forward spans = %d for an expired request, want 0", n)
	}
}

func TestFutureDeadlineServesNormally(t *testing.T) {
	leakcheck.Check(t)
	s, _ := New(testModel(t), Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := predictWithDeadline(t, ts, time.Now().Add(10*time.Second), httpapi.PredictRequest{Items: []int64{1, 2}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 with budget to spare", resp.StatusCode)
	}
}

func TestAdaptiveLimiterShedsAtLimit(t *testing.T) {
	leakcheck.Check(t)
	lim := overload.NewLimiter(overload.LimiterConfig{Initial: 1, Min: 1})
	s, _ := New(testModel(t), Options{Limiter: lim})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Saturate the limit from outside the server, as a second in-flight
	// request would.
	if !lim.TryAcquire() {
		t.Fatal("fresh limiter refused its first slot")
	}
	resp, _ := predict(t, ts, httpapi.PredictRequest{Items: []int64{1}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 past the adaptive limit", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("adaptive shed must carry Retry-After")
	}
	if s.Shed() != 1 {
		t.Fatalf("Shed() = %d, want 1", s.Shed())
	}
	lim.Release(time.Millisecond, false)

	// With the slot free the same request serves, and its latency trains
	// the limiter's baseline.
	resp, _ = predict(t, ts, httpapi.PredictRequest{Items: []int64{1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d after release, want 200", resp.StatusCode)
	}
	if lim.Inflight() != 0 {
		t.Fatalf("Inflight() = %d after completion, want 0 (slot leaked)", lim.Inflight())
	}
}

func TestLimiterReleasedOnEveryOutcome(t *testing.T) {
	leakcheck.Check(t)
	lim := overload.NewLimiter(overload.LimiterConfig{Initial: 4})
	s, _ := New(testModel(t), Options{Limiter: lim})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Success, bad request, and expired deadline must all return their slot.
	predict(t, ts, httpapi.PredictRequest{Items: []int64{1}})
	predict(t, ts, httpapi.PredictRequest{Items: []int64{-5}})
	predictWithDeadline(t, ts, time.Now().Add(-time.Second), httpapi.PredictRequest{Items: []int64{1}})
	if lim.Inflight() != 0 {
		t.Fatalf("Inflight() = %d after mixed outcomes, want 0", lim.Inflight())
	}
}

// TestBatchErrorMapping pins the one answer to every way the batcher or the
// gateway can refuse a request — batches of one, plain batching, the
// scheduler and the scatter-gather frontend alike: the status, the counter
// it raises and whether it tells the adaptive limiter the server is
// congested. A client hang-up is 499 and no congestion signal everywhere.
func TestBatchErrorMapping(t *testing.T) {
	for _, tc := range []struct {
		name       string
		err        error
		status     int
		retryAfter bool
		counter    string // "" = none
		congested  bool
	}{
		{"expired sentinel", batching.ErrDeadlineExpired, http.StatusGatewayTimeout, false, "deadlineExpired", true},
		{"context deadline", context.DeadlineExceeded, http.StatusGatewayTimeout, false, "deadlineExpired", true},
		{"context canceled", context.Canceled, httpapi.StatusClientClosedRequest, false, "", false},
		{"codel drop", batching.ErrCoDelDropped, http.StatusServiceUnavailable, true, "codelDropped", true},
		{"tenant shed", sched.ErrShed, http.StatusTooManyRequests, true, "shed", false},
		{"closed", batching.ErrClosed, http.StatusServiceUnavailable, false, "", false},
		{"gateway coverage", &shard.CoverageError{Answered: 1, Shards: 4, Min: 3}, http.StatusServiceUnavailable, false, "", false},
		{"gateway shard status", &httpapi.StatusError{Code: http.StatusTooManyRequests}, http.StatusTooManyRequests, false, "", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &Server{}
			w := httptest.NewRecorder()
			congested := s.batchError(w, tc.err)
			if w.Code != tc.status {
				t.Errorf("status = %d, want %d", w.Code, tc.status)
			}
			if got := w.Header().Get("Retry-After") != ""; got != tc.retryAfter {
				t.Errorf("Retry-After present = %v, want %v", got, tc.retryAfter)
			}
			if congested != tc.congested {
				t.Errorf("congested = %v, want %v", congested, tc.congested)
			}
			counters := map[string]int64{
				"deadlineExpired": s.deadlineExpired.Load(),
				"codelDropped":    s.codelDropped.Load(),
				"shed":            s.shed.Load(),
			}
			for name, v := range counters {
				want := int64(0)
				if name == tc.counter {
					want = 1
				}
				if v != want {
					t.Errorf("%s = %d, want %d", name, v, want)
				}
			}
		})
	}
}

// TestSchedCoDelShedsBehindParkedHandler: Options.CoDel applies on the
// scheduled path too. A request queued behind a parked handler is shed at
// flush with 503 + Retry-After and counted on /metrics.
func TestSchedCoDelShedsBehindParkedHandler(t *testing.T) {
	// Virtual clock, nanosecond target and interval: the first flush arms
	// the excursion, the next one drops.
	var clk atomic.Int64
	cd := overload.NewCoDel(overload.CoDelConfig{Target: time.Nanosecond, Interval: time.Nanosecond}, func() time.Duration {
		return time.Duration(clk.Add(int64(time.Millisecond)))
	})
	s, err := New(testModel(t), Options{Workers: 1, CoDel: cd, Sched: &sched.Config{MaxBatch: 8, FlushEvery: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Park the handler: it waits for the only predictor.
	pool := s.rt.Load().pool
	slot := <-pool
	unpark := sync.OnceFunc(func() { pool <- slot })
	defer unpark()
	first := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(httpapi.PredictRequest{Items: []int64{1}})
		resp, err := http.Post(ts.URL+httpapi.PredictPath, "application/json", bytes.NewReader(body))
		if err != nil {
			first <- 0
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	// The first CoDel verdict means the first request has flushed into
	// the parked handler, so the second queues behind it.
	waitFor(t, func() bool { return clk.Load() > 0 })
	second := make(chan *http.Response, 1)
	go func() {
		body, _ := json.Marshal(httpapi.PredictRequest{Items: []int64{2}})
		resp, err := http.Post(ts.URL+httpapi.PredictPath, "application/json", bytes.NewReader(body))
		if err != nil {
			second <- nil
			return
		}
		resp.Body.Close()
		second <- resp
	}()
	waitFor(t, func() bool { return s.batcher.Pending() == 2 })
	unpark()

	if got := <-first; got != http.StatusOK {
		t.Fatalf("first request status = %d, want 200", got)
	}
	resp := <-second
	if resp == nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued request = %v, want 503", resp)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("CoDel shed must carry Retry-After")
	}
	mresp, err := http.Get(ts.URL + httpapi.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	samples, err := metrics.ParsePromText(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	dropped := -1.0
	for _, smp := range samples {
		if smp.Key() == "etude_codel_dropped_total" {
			dropped = smp.Value
		}
	}
	if dropped != 1 {
		t.Fatalf("etude_codel_dropped_total = %v, want 1", dropped)
	}
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
