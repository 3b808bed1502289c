package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
	"time"

	"etude/internal/batching"
	"etude/internal/buildinfo"
	"etude/internal/httpapi"
	"etude/internal/metrics"
	"etude/internal/model"
	"etude/internal/overload"
	"etude/internal/trace"
)

func predictWithID(t *testing.T, ts *httptest.Server, id string, req httpapi.PredictRequest) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+httpapi.PredictPath, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if id != "" {
		hreq.Header.Set(httpapi.HeaderRequestID, id)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestRequestIDEchoedOnSuccess(t *testing.T) {
	s, _ := New(testModel(t), Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := predictWithID(t, ts, "req-42", httpapi.PredictRequest{Items: []int64{1, 2}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(httpapi.HeaderRequestID); got != "req-42" {
		t.Fatalf("request id echo = %q, want req-42", got)
	}
}

func TestRequestIDEchoedFromBody(t *testing.T) {
	s, _ := New(testModel(t), Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := predictWithID(t, ts, "", httpapi.PredictRequest{RequestID: "body-7", Items: []int64{1}})
	if got := resp.Header.Get(httpapi.HeaderRequestID); got != "body-7" {
		t.Fatalf("body-carried request id echo = %q, want body-7", got)
	}
}

func TestRequestIDEchoedOnBadRequest(t *testing.T) {
	s, _ := New(testModel(t), Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := predictWithID(t, ts, "bad-1", httpapi.PredictRequest{Items: []int64{-5}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if got := resp.Header.Get(httpapi.HeaderRequestID); got != "bad-1" {
		t.Fatalf("400 must echo request id, got %q", got)
	}
}

func TestRequestIDEchoedOnShed(t *testing.T) {
	s, _ := New(testModel(t), Options{MaxPending: 1})
	defer s.Close()
	// Saturate admission control directly: the handler sheds before ever
	// decoding the body.
	s.pending.Add(2)
	defer s.pending.Add(-2)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := predictWithID(t, ts, "shed-9", httpapi.PredictRequest{Items: []int64{1}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get(httpapi.HeaderRequestID); got != "shed-9" {
		t.Fatalf("429 must echo request id, got %q", got)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
}

func TestRequestIDEchoedOnClientCancel(t *testing.T) {
	s, _ := New(testModel(t), Options{Workers: 1})
	defer s.Close()
	// Hold the only predictor, then arrive with an already-cancelled
	// context: the request is answered 499 when its batch would start,
	// without reaching the model.
	p := <-s.rt.Load().pool
	defer func() { s.rt.Load().pool <- p }()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body, _ := json.Marshal(httpapi.PredictRequest{Items: []int64{1}})
	req := httptest.NewRequest(http.MethodPost, httpapi.PredictPath, bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set(httpapi.HeaderRequestID, "gone-3")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != httpapi.StatusClientClosedRequest {
		t.Fatalf("status = %d, want 499", rec.Code)
	}
	if got := rec.Header().Get(httpapi.HeaderRequestID); got != "gone-3" {
		t.Fatalf("499 must echo request id, got %q", got)
	}
}

func TestRequestIDEchoedOnDegraded(t *testing.T) {
	s, _ := New(testModel(t), Options{DegradeAt: 1})
	defer s.Close()
	// Push queue depth past the watermark so the fallback path answers.
	s.pending.Add(5)
	defer s.pending.Add(-5)
	body, _ := json.Marshal(httpapi.PredictRequest{Items: []int64{1}})
	req := httptest.NewRequest(http.MethodPost, httpapi.PredictPath, bytes.NewReader(body))
	req.Header.Set(httpapi.HeaderRequestID, "deg-5")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Header().Get(httpapi.HeaderDegraded) != "1" {
		t.Fatalf("expected degraded 200, got %d degraded=%q", rec.Code, rec.Header().Get(httpapi.HeaderDegraded))
	}
	if got := rec.Header().Get(httpapi.HeaderRequestID); got != "deg-5" {
		t.Fatalf("degraded response must echo request id, got %q", got)
	}
}

func TestMetricsEndpointParsesBack(t *testing.T) {
	tr := trace.New(trace.Options{})
	s, _ := New(testModel(t), Options{Tracer: tr})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 5; i++ {
		resp := predictWithID(t, ts, "", httpapi.PredictRequest{Items: []int64{1, 2, 3}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + httpapi.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != metrics.PromContentType {
		t.Fatalf("content type = %q", ct)
	}
	samples, err := metrics.ParsePromText(resp.Body)
	if err != nil {
		t.Fatalf("exposition did not parse back: %v", err)
	}
	byKey := map[string]float64{}
	for _, smp := range samples {
		byKey[smp.Key()] = smp.Value
	}
	if byKey["etude_requests_total"] != 5 {
		t.Fatalf("etude_requests_total = %v, want 5", byKey["etude_requests_total"])
	}
	if byKey["etude_request_seconds_count"] != 5 {
		t.Fatalf("request summary count = %v, want 5", byKey["etude_request_seconds_count"])
	}
	// The unbatched traced path must expose the encoder/top-k split.
	for _, stage := range []string{"admission", "queue-wait", "embedding-lookup", "encoder-forward", "mips-topk", "serialize"} {
		key := `etude_stage_seconds_count{stage="` + stage + `"}`
		if byKey[key] != 5 {
			t.Fatalf("stage %s count = %v, want 5 (keys: %v)", stage, byKey[key], keysOf(byKey))
		}
	}
	if _, ok := byKey["etude_queue_depth"]; !ok {
		t.Fatal("missing etude_queue_depth gauge")
	}
	// Overload-control families are always exposed, zero-valued when idle.
	for _, fam := range []string{"etude_deadline_expired_total", "etude_codel_dropped_total", "etude_inflight_limit"} {
		if v, ok := byKey[fam]; !ok || v != 0 {
			t.Fatalf("%s = %v (present %v), want 0 on an idle unlimited server", fam, v, ok)
		}
	}
	// Build identity gauge parses back with the live binary's labels.
	var found bool
	for _, smp := range samples {
		if smp.Name != "etude_build_info" {
			continue
		}
		found = true
		if smp.Value != 1 {
			t.Fatalf("etude_build_info = %v, want 1", smp.Value)
		}
		bi := buildinfo.Get()
		if smp.Labels["git_sha"] != bi.ShortSHA() || smp.Labels["go_version"] != bi.GoVersion {
			t.Fatalf("build info labels %v do not match identity %+v", smp.Labels, bi)
		}
	}
	if !found {
		t.Fatal("missing etude_build_info gauge")
	}
}

func TestMetricsExposeOverloadCounters(t *testing.T) {
	lim := overload.NewLimiter(overload.LimiterConfig{Initial: 8})
	s, _ := New(testModel(t), Options{Limiter: lim})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One expired request and one served request.
	body, _ := json.Marshal(httpapi.PredictRequest{Items: []int64{1}})
	hreq, _ := http.NewRequest(http.MethodPost, ts.URL+httpapi.PredictPath, bytes.NewReader(body))
	httpapi.SetDeadlineHeader(hreq.Header, time.Now().Add(-time.Second))
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired request status = %d, want 504", resp.StatusCode)
	}
	if resp2 := predictWithID(t, ts, "", httpapi.PredictRequest{Items: []int64{1}}); resp2.StatusCode != http.StatusOK {
		t.Fatalf("live request status = %d", resp2.StatusCode)
	}

	mresp, err := http.Get(ts.URL + httpapi.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	samples, err := metrics.ParsePromText(mresp.Body)
	if err != nil {
		t.Fatalf("exposition did not parse back: %v", err)
	}
	byKey := map[string]float64{}
	for _, smp := range samples {
		byKey[smp.Key()] = smp.Value
	}
	if byKey["etude_deadline_expired_total"] != 1 {
		t.Fatalf("etude_deadline_expired_total = %v, want 1", byKey["etude_deadline_expired_total"])
	}
	if byKey["etude_inflight_limit"] != float64(lim.Limit()) || byKey["etude_inflight_limit"] == 0 {
		t.Fatalf("etude_inflight_limit = %v, want current limit %d", byKey["etude_inflight_limit"], lim.Limit())
	}
}

func keysOf(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestMetricsExtraHook(t *testing.T) {
	s, _ := New(testModel(t), Options{
		MetricsExtra: func(b *metrics.PromBuilder) {
			b.Gauge("etude_breaker_open_endpoints", "Breaker-ejected endpoints.", 2)
		},
	})
	defer s.Close()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, httpapi.MetricsPath, nil))
	if !strings.Contains(rec.Body.String(), "etude_breaker_open_endpoints 2") {
		t.Fatalf("MetricsExtra family missing:\n%s", rec.Body.String())
	}
	if _, err := metrics.ParsePromText(strings.NewReader(rec.Body.String())); err != nil {
		t.Fatalf("exposition with extra families did not parse: %v", err)
	}
}

func TestPprofOptIn(t *testing.T) {
	on, _ := New(testModel(t), Options{Profiling: true})
	defer on.Close()
	ts := httptest.NewServer(on.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof profile status = %d, want 200", resp.StatusCode)
	}

	off, _ := New(testModel(t), Options{})
	defer off.Close()
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	resp2, err := http.Get(tsOff.URL + "/debug/pprof/profile")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode == http.StatusOK {
		t.Fatal("pprof must not be mounted unless Profiling is set")
	}
}

func TestBatchedTracingRecordsBatchStages(t *testing.T) {
	tr := trace.New(trace.Options{})
	cfg := batching.Config{MaxBatch: 8, FlushEvery: time.Millisecond}
	s, _ := New(testModel(t), Options{Workers: 1, Batch: &cfg, Tracer: tr})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 12
	for i := 0; i < n; i++ {
		resp := predictWithID(t, ts, "", httpapi.PredictRequest{Items: []int64{1, 2, 3}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	}
	if got := tr.TotalSnapshot().Count; got != n {
		t.Fatalf("total spans = %d, want %d", got, n)
	}
	if got := tr.StageSnapshot(trace.StageBatchAssembly).Count; got != n {
		t.Fatalf("batch-assembly count = %d, want %d", got, n)
	}
	flushes, mean, _ := tr.BatchStats()
	if flushes == 0 || mean < 1 {
		t.Fatalf("batch stats not recorded: flushes=%d mean=%v", flushes, mean)
	}
	if len(tr.Exemplars()) == 0 {
		t.Fatal("no tail exemplars retained")
	}
}

// Stage sums must reconcile with end-to-end totals: on the traced unbatched
// path every stage is measured, so the mean stage-sum should land within
// 25% of the mean total (generous: httptest adds network+header time the
// stages legitimately exclude).
func TestStageSumReconcilesWithTotal(t *testing.T) {
	tr := trace.New(trace.Options{})
	s, _ := New(testModel(t), Options{Workers: 1, Tracer: tr})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 30
	for i := 0; i < n; i++ {
		resp := predictWithID(t, ts, "", httpapi.PredictRequest{Items: []int64{5, 9, 13, 2}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	}
	var stageSum time.Duration
	for _, st := range trace.Stages() {
		snap := tr.StageSnapshot(st)
		stageSum += time.Duration(float64(snap.Mean) * float64(snap.Count) / n)
	}
	total := tr.TotalSnapshot().Mean
	if stageSum == 0 || total == 0 {
		t.Fatalf("no data: stageSum=%v total=%v", stageSum, total)
	}
	ratio := float64(stageSum) / float64(total)
	if ratio < 0.5 || ratio > 1.05 {
		t.Fatalf("stage-sum %v does not reconcile with total %v (ratio %.2f)", stageSum, total, ratio)
	}
}

// The <2% guard: with tracing disabled the instrumented predictor path (one
// nil-span check per stage) must not measurably slow the inference hot path.
// Minimum-of-rounds on both sides cancels scheduler noise.
func TestTracingDisabledOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive guard; skipped in -short")
	}
	m, err := model.New("gru4rec", model.Config{CatalogSize: 20000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := New(m, Options{Workers: 1})
	defer s.Close()
	p := <-s.rt.Load().pool
	defer func() { s.rt.Load().pool <- p }()
	session := []int64{3, 17, 42, 8, 99, 7}

	for i := 0; i < 20; i++ { // warm caches on both paths
		m.Recommend(session)
		p.recommend(session, nil)
	}
	// A/B wall-clock comparisons at ~300µs per call are dominated by
	// scheduler and frequency noise, so use a robust paired design: GC off,
	// interleaved rounds, and the median of per-round instrumented/base
	// ratios (immune to drift and spike outliers on either side). Both sides
	// do the same inference, so the true overhead is far below 0.1%, and
	// what the median reads is its own sampling error: 60 rounds spread it
	// from -0.7% to +2.4% across reruns; 400 rounds keep it well inside the
	// 2% bound on a loaded two-core host.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	run := func(f func()) time.Duration {
		start := time.Now()
		for i := 0; i < 10; i++ {
			f()
		}
		return time.Since(start)
	}
	const rounds = 400
	ratios := make([]float64, 0, rounds)
	for round := 0; round < rounds; round++ {
		// Alternate measurement order: frequency ramps within a round would
		// otherwise systematically penalise whichever side runs second.
		var base, instrumented time.Duration
		if round%2 == 0 {
			base = run(func() { m.Recommend(session) })
			instrumented = run(func() { p.recommend(session, nil) })
		} else {
			instrumented = run(func() { p.recommend(session, nil) })
			base = run(func() { m.Recommend(session) })
		}
		ratios = append(ratios, float64(instrumented)/float64(base))
	}
	sort.Float64s(ratios)
	median := ratios[rounds/2]
	overhead := median - 1
	if overhead > 0.02 {
		t.Fatalf("tracing-disabled overhead %.2f%% exceeds 2%% (median of %d paired rounds)",
			overhead*100, rounds)
	}
	t.Logf("tracing-disabled overhead: %.3f%% (median of %d paired rounds)", overhead*100, rounds)
}

func BenchmarkPredictorTracingOff(b *testing.B) {
	m, _ := model.New("gru4rec", model.Config{CatalogSize: 10000, Seed: 1})
	s, _ := New(m, Options{Workers: 1})
	defer s.Close()
	p := <-s.rt.Load().pool
	session := []int64{3, 17, 42, 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.recommend(session, nil)
	}
}

func BenchmarkPredictorTracingOn(b *testing.B) {
	m, _ := model.New("gru4rec", model.Config{CatalogSize: 10000, Seed: 1})
	tr := trace.New(trace.Options{})
	s, _ := New(m, Options{Workers: 1, Tracer: tr})
	defer s.Close()
	p := <-s.rt.Load().pool
	session := []int64{3, 17, 42, 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("bench")
		p.recommend(session, sp)
		sp.Finish()
	}
}
