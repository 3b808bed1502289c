package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"etude/internal/batching"
	"etude/internal/httpapi"
	"etude/internal/metrics"
	"etude/internal/sched"
)

func predictTenant(t *testing.T, ts *httptest.Server, tenant string, req httpapi.PredictRequest) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	hr, err := http.NewRequest(http.MethodPost, ts.URL+httpapi.PredictPath, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		hr.Header.Set(httpapi.HeaderTenant, tenant)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestSchedServingEndToEnd(t *testing.T) {
	m := testModel(t)
	s, err := New(m, Options{Workers: 2, Sched: &sched.Config{
		Tenants:    []sched.TenantConfig{{Name: "a", Weight: 3}, {Name: "b", Weight: 1}},
		MaxBatch:   8,
		FlushEvery: time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := predictTenant(t, ts, "a", httpapi.PredictRequest{SessionID: 1, Items: []int64{3, 17, 42}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(httpapi.HeaderTenant); got != "a" {
		t.Fatalf("tenant echo = %q, want %q", got, "a")
	}
	var out httpapi.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	// Scheduled serving must be bit-identical to direct model output.
	direct := m.Recommend([]int64{3, 17, 42})
	for i := range direct {
		if out.Items[i] != direct[i].Item {
			t.Fatalf("served item %d != direct %d at %d", out.Items[i], direct[i].Item, i)
		}
	}
	var served int64
	for _, st := range s.TenantStats() {
		if st.Tenant == "a" {
			served = st.Served
		}
	}
	if served != 1 {
		t.Fatalf("tenant a served = %d, want 1", served)
	}
}

// A request with no X-Tenant header but a body-carried tenant label is
// admitted under that tenant and the label is echoed (header-stripping
// transports), mirroring the request-id fallback.
func TestSchedBodyTenantFallback(t *testing.T) {
	s, err := New(testModel(t), Options{Workers: 1, Sched: &sched.Config{MaxBatch: 4, FlushEvery: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := predictTenant(t, ts, "", httpapi.PredictRequest{SessionID: 2, Items: []int64{5}, Tenant: "carried"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(httpapi.HeaderTenant); got != "carried" {
		t.Fatalf("tenant echo = %q, want %q", got, "carried")
	}
	found := false
	for _, st := range s.TenantStats() {
		if st.Tenant == "carried" && st.Served == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("body-carried tenant not accounted: %+v", s.TenantStats())
	}
}

// An anonymous request (no tenant anywhere) lands in the default queue and
// gets no tenant echo.
func TestSchedAnonymousDefaultTenant(t *testing.T) {
	s, err := New(testModel(t), Options{Workers: 1, Sched: &sched.Config{MaxBatch: 4, FlushEvery: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := predictTenant(t, ts, "", httpapi.PredictRequest{SessionID: 3, Items: []int64{7}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(httpapi.HeaderTenant); got != "" {
		t.Fatalf("anonymous request echoed tenant %q", got)
	}
	found := false
	for _, st := range s.TenantStats() {
		if st.Tenant == sched.DefaultTenant && st.Served == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("anonymous request not under default tenant: %+v", s.TenantStats())
	}
}

// A tenant queue at its bound sheds with 429 + Retry-After, echoing the
// tenant — per-tenant admission control surfaces exactly like the global
// kind.
func TestSchedShedAnswers429WithTenantEcho(t *testing.T) {
	s, err := New(testModel(t), Options{Workers: 1, Sched: &sched.Config{
		MaxBatch:   64,
		FlushEvery: time.Hour, // nothing flushes during the test
		MaxQueue:   1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	// Fill tenant hog's queue (the request parks until Close).
	parked := make(chan *http.Response, 1)
	go func() {
		body, _ := json.Marshal(httpapi.PredictRequest{SessionID: 4, Items: []int64{1}})
		hr, _ := http.NewRequest(http.MethodPost, ts.URL+httpapi.PredictPath, bytes.NewReader(body))
		hr.Header.Set(httpapi.HeaderTenant, "hog")
		resp, err := http.DefaultClient.Do(hr)
		if err == nil {
			resp.Body.Close()
			parked <- resp
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.batcher.Pending() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	resp := predictTenant(t, ts, "hog", httpapi.PredictRequest{SessionID: 5, Items: []int64{2}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-bound status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get(httpapi.HeaderTenant); got != "hog" {
		t.Fatalf("shed response tenant echo = %q, want %q", got, "hog")
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if s.Shed() == 0 {
		t.Fatal("global shed counter not incremented")
	}
	// Closing the batcher releases the parked request with 503.
	s.Close()
	select {
	case pr := <-parked:
		if pr.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("parked request status = %d, want 503", pr.StatusCode)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked request never released")
	}
	ts.Close()
}

// Per-tenant scheduling counters are exposed on /metrics and the
// exposition parses back.
func TestSchedMetricsParseBack(t *testing.T) {
	s, err := New(testModel(t), Options{Workers: 2, Sched: &sched.Config{
		Tenants:    []sched.TenantConfig{{Name: "a", Weight: 3}, {Name: "b", Weight: 1}},
		MaxBatch:   8,
		FlushEvery: time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		if resp := predictTenant(t, ts, "a", httpapi.PredictRequest{Items: []int64{1, 2}}); resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	}
	if resp := predictTenant(t, ts, "b", httpapi.PredictRequest{Items: []int64{3}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + httpapi.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := metrics.ParsePromText(resp.Body)
	if err != nil {
		t.Fatalf("exposition did not parse back: %v", err)
	}
	byKey := map[string]float64{}
	for _, smp := range samples {
		byKey[smp.Key()] = smp.Value
	}
	if v := byKey[`etude_tenant_served_total{tenant="a"}`]; v != 3 {
		t.Fatalf(`etude_tenant_served_total{tenant="a"} = %v, want 3`, v)
	}
	if v := byKey[`etude_tenant_served_total{tenant="b"}`]; v != 1 {
		t.Fatalf(`etude_tenant_served_total{tenant="b"} = %v, want 1`, v)
	}
	if v := byKey[`etude_tenant_weight{tenant="a"}`]; v != 3 {
		t.Fatalf(`etude_tenant_weight{tenant="a"} = %v, want 3`, v)
	}
	for _, fam := range []string{
		`etude_tenant_shed_total{tenant="a"}`,
		`etude_tenant_deadline_miss_total{tenant="a"}`,
		`etude_tenant_pending{tenant="a"}`,
	} {
		if v, ok := byKey[fam]; !ok || v != 0 {
			t.Fatalf("%s = %v (present %v), want 0", fam, v, ok)
		}
	}
	// The scheduled path attributes its wait to the sched-wait stage.
	// (Zero-duration observations are skipped, so only require the family
	// when the batch waited at all — but the total count must be nonzero
	// across stages.)
	if byKey["etude_requests_total"] != 4 {
		t.Fatalf("etude_requests_total = %v, want 4", byKey["etude_requests_total"])
	}
}

// Batch and Sched cannot be combined: the scheduler does its own batching.
func TestSchedOptionExclusivity(t *testing.T) {
	_, err := New(testModel(t), Options{
		Batch: &batching.Config{MaxBatch: 4, FlushEvery: time.Millisecond},
		Sched: &sched.Config{MaxBatch: 4, FlushEvery: time.Millisecond},
	})
	if err == nil {
		t.Fatal("Batch+Sched accepted")
	}
}
