package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"etude/internal/batching"
	"etude/internal/httpapi"
	"etude/internal/leakcheck"
	"etude/internal/model"
	"etude/internal/objstore"
)

func testModel(t *testing.T) model.Model {
	t.Helper()
	m, err := model.New("gru4rec", model.Config{CatalogSize: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func predict(t *testing.T, ts *httptest.Server, req httpapi.PredictRequest) (*http.Response, httpapi.PredictResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+httpapi.PredictPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out httpapi.PredictResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func TestPredictEndToEnd(t *testing.T) {
	m := testModel(t)
	s, err := New(m, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, out := predict(t, ts, httpapi.PredictRequest{SessionID: 1, Items: []int64{3, 17, 42}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(out.Items) != model.DefaultTopK || len(out.Scores) != model.DefaultTopK {
		t.Fatalf("got %d items, %d scores", len(out.Items), len(out.Scores))
	}
	// Server responses must match direct model output.
	direct := m.Recommend([]int64{3, 17, 42})
	for i := range direct {
		if out.Items[i] != direct[i].Item {
			t.Fatalf("served item %d != direct %d at %d", out.Items[i], direct[i].Item, i)
		}
	}
	if httpapi.InferenceDuration(resp.Header) <= 0 {
		t.Fatalf("missing inference duration header")
	}
}

func TestReadinessProbe(t *testing.T) {
	s, _ := New(testModel(t), Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + httpapi.ReadyPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ping status = %d", resp.StatusCode)
	}
}

func TestStaticServer(t *testing.T) {
	s := NewStatic()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, out := predict(t, ts, httpapi.PredictRequest{SessionID: 1, Items: []int64{1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(out.Items) != 0 {
		t.Fatalf("static server must return an empty answer, got %v", out.Items)
	}
}

func TestBadRequests(t *testing.T) {
	s, _ := New(testModel(t), Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Wrong method.
	resp, err := http.Get(ts.URL + httpapi.PredictPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
	// Malformed JSON.
	resp2, err := http.Post(ts.URL+httpapi.PredictPath, "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status = %d", resp2.StatusCode)
	}
	// Negative item id.
	resp3, _ := predict(t, ts, httpapi.PredictRequest{Items: []int64{-1}})
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative item status = %d", resp3.StatusCode)
	}
}

func TestJITServingMatchesEager(t *testing.T) {
	m := testModel(t)
	eager, _ := New(m, Options{Workers: 1})
	defer eager.Close()
	jit, err := New(m, Options{Workers: 1, JIT: true})
	if err != nil {
		t.Fatal(err)
	}
	defer jit.Close()
	if !jit.JITActive() {
		t.Fatalf("JIT not active for a compilable model")
	}
	tsE := httptest.NewServer(eager.Handler())
	defer tsE.Close()
	tsJ := httptest.NewServer(jit.Handler())
	defer tsJ.Close()

	req := httpapi.PredictRequest{Items: []int64{5, 9, 14}}
	_, outE := predict(t, tsE, req)
	_, outJ := predict(t, tsJ, req)
	for i := range outE.Items {
		if outE.Items[i] != outJ.Items[i] {
			t.Fatalf("JIT item %d != eager %d at %d", outJ.Items[i], outE.Items[i], i)
		}
	}
}

func TestLightSANsFallsBackToEager(t *testing.T) {
	m, err := model.New("lightsans", model.Config{CatalogSize: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(m, Options{JIT: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.JITActive() {
		t.Fatalf("LightSANs must not be JIT-served (paper: dynamic code paths)")
	}
}

func TestConcurrentPredictions(t *testing.T) {
	s, _ := New(testModel(t), Options{Workers: 4, JIT: true})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			resp, out := predict(t, ts, httpapi.PredictRequest{Items: []int64{int64(n % 200)}})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status = %d", resp.StatusCode)
				return
			}
			if len(out.Items) == 0 {
				t.Errorf("empty response")
			}
		}(i)
	}
	wg.Wait()
}

func TestBatchedServing(t *testing.T) {
	cfg := batching.Config{MaxBatch: 16, FlushEvery: 2 * time.Millisecond}
	s, err := New(testModel(t), Options{Workers: 2, Batch: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			resp, out := predict(t, ts, httpapi.PredictRequest{Items: []int64{int64(n % 200), 5}})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status = %d", resp.StatusCode)
				return
			}
			if len(out.Items) != model.DefaultTopK {
				t.Errorf("got %d items", len(out.Items))
			}
		}(i)
	}
	wg.Wait()
}

func TestLoadFromBucket(t *testing.T) {
	bucket := objstore.NewMemBucket()
	manifest := model.Manifest{
		Model:  "stamp",
		Config: model.Config{CatalogSize: 150, Seed: 3},
	}
	data, err := model.MarshalManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := bucket.Put("models/stamp.json", data); err != nil {
		t.Fatal(err)
	}
	s, err := LoadFromBucket(bucket, "models/stamp.json", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Model().Name() != "stamp" {
		t.Fatalf("loaded model = %s", s.Model().Name())
	}
	if _, err := LoadFromBucket(bucket, "models/missing.json", Options{}); err == nil {
		t.Fatalf("missing artifact must error")
	}
	_ = bucket.Put("models/garbage.json", []byte("not json"))
	if _, err := LoadFromBucket(bucket, "models/garbage.json", Options{}); err == nil {
		t.Fatalf("garbage artifact must error")
	}
}

func TestNilModelRejected(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatalf("nil model accepted")
	}
}

// TestServingOverheadLow is the repository's local version of the paper's
// Fig 2 claim for the Actix server: static responses are served in around a
// millisecond. We allow generous slack for CI noise but require
// sub-10ms responses.
func TestServingOverheadLow(t *testing.T) {
	s := NewStatic()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(httpapi.PredictRequest{Items: []int64{1}})
	// Warm up connections.
	for i := 0; i < 5; i++ {
		resp, err := http.Post(ts.URL+httpapi.PredictPath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	start := time.Now()
	const n = 100
	for i := 0; i < n; i++ {
		resp, err := http.Post(ts.URL+httpapi.PredictPath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	avg := time.Since(start) / n
	if avg > 10*time.Millisecond {
		t.Fatalf("static serving overhead %v per request — want ≈1ms", avg)
	}
}

func ExampleServer() {
	m, _ := model.New("core", model.Config{CatalogSize: 100, Seed: 1, TopK: 3})
	s, _ := New(m, Options{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(httpapi.PredictRequest{SessionID: 7, Items: []int64{1, 2, 3}})
	resp, err := http.Post(ts.URL+httpapi.PredictPath, "application/json", bytes.NewReader(body))
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var out httpapi.PredictResponse
	_ = json.NewDecoder(resp.Body).Decode(&out)
	fmt.Println(len(out.Items), "recommendations")
	// Output: 3 recommendations
}

// TestBatchedMatchesUnbatched: request batching must not change results.
func TestBatchedMatchesUnbatched(t *testing.T) {
	m := testModel(t)
	plain, err := New(m, Options{Workers: 1, JIT: true})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	cfg := batching.Config{MaxBatch: 8, FlushEvery: time.Millisecond}
	batched, err := New(m, Options{Workers: 1, JIT: true, Batch: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()

	tsP := httptest.NewServer(plain.Handler())
	defer tsP.Close()
	tsB := httptest.NewServer(batched.Handler())
	defer tsB.Close()

	for _, session := range [][]int64{{1}, {5, 9}, {100, 3, 100}} {
		req := httpapi.PredictRequest{Items: session}
		_, a := predict(t, tsP, req)
		_, b := predict(t, tsB, req)
		for i := range a.Items {
			if a.Items[i] != b.Items[i] {
				t.Fatalf("session %v pos %d: plain %d != batched %d", session, i, a.Items[i], b.Items[i])
			}
		}
	}
}

// TestWorkerPoolBoundsConcurrency: with one worker, two simultaneous
// requests serialise — the second's total time includes the first's
// service.
func TestWorkerPoolBoundsConcurrency(t *testing.T) {
	m, err := model.New("gru4rec", model.Config{CatalogSize: 150_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(m, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Warm up caches and connections, then time one request alone.
	for i := 0; i < 3; i++ {
		predict(t, ts, httpapi.PredictRequest{Items: []int64{1, 2}})
	}
	start := time.Now()
	predict(t, ts, httpapi.PredictRequest{Items: []int64{1, 2}})
	solo := time.Since(start)

	// Fire four at once; the last must take ≈4× solo.
	start = time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			predict(t, ts, httpapi.PredictRequest{Items: []int64{1, 2}})
		}()
	}
	wg.Wait()
	batchTime := time.Since(start)
	if batchTime < 2*solo {
		t.Fatalf("4 concurrent on 1 worker took %v vs solo %v — pool not bounding", batchTime, solo)
	}
}

// TestLoadFromBucketWithWeights: the full serialised-model deployment flow —
// manifest + weight archive in the bucket; the deployed server must behave
// like the weight donor even though the manifest's seed differs.
func TestLoadFromBucketWithWeights(t *testing.T) {
	donor, err := model.New("gru4rec", model.Config{CatalogSize: 300, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	weights, err := model.SaveWeights(donor)
	if err != nil {
		t.Fatal(err)
	}
	bucket := objstore.NewMemBucket()
	if err := bucket.Put("weights/gru4rec.bin", weights); err != nil {
		t.Fatal(err)
	}
	manifest := model.Manifest{
		Model:      "gru4rec",
		Config:     model.Config{CatalogSize: 300, Seed: 7}, // different seed!
		WeightsKey: "weights/gru4rec.bin",
	}
	data, _ := model.MarshalManifest(manifest)
	if err := bucket.Put("models/gru4rec.json", data); err != nil {
		t.Fatal(err)
	}

	s, err := LoadFromBucket(bucket, "models/gru4rec.json", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, out := predict(t, ts, httpapi.PredictRequest{Items: []int64{5, 9}})
	want := donor.Recommend([]int64{5, 9})
	for i := range want {
		if out.Items[i] != want[i].Item {
			t.Fatalf("pos %d: served %d != donor %d — weights not applied", i, out.Items[i], want[i].Item)
		}
	}

	// Missing weights archive must fail deployment.
	bad := model.Manifest{Model: "gru4rec", Config: model.Config{CatalogSize: 300}, WeightsKey: "weights/missing.bin"}
	badData, _ := model.MarshalManifest(bad)
	_ = bucket.Put("models/bad.json", badData)
	if _, err := LoadFromBucket(bucket, "models/bad.json", Options{}); err == nil {
		t.Fatalf("missing weights archive accepted")
	}
	// Corrupt weights archive must fail deployment.
	_ = bucket.Put("weights/corrupt.bin", []byte("junk"))
	corrupt := model.Manifest{Model: "gru4rec", Config: model.Config{CatalogSize: 300}, WeightsKey: "weights/corrupt.bin"}
	corruptData, _ := model.MarshalManifest(corrupt)
	_ = bucket.Put("models/corrupt.json", corruptData)
	if _, err := LoadFromBucket(bucket, "models/corrupt.json", Options{}); err == nil {
		t.Fatalf("corrupt weights archive accepted")
	}
}

// TestDrainLifecycle pins the liveness/readiness split a graceful drain
// relies on: BeginDrain fails the readiness probe (routers stop sending
// work) while liveness stays green (supervisors must not restart) and
// predictions — admitted or racing — still complete.
func TestDrainLifecycle(t *testing.T) {
	leakcheck.Check(t)
	m := testModel(t)
	s, err := New(m, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// Before drain: both probes green.
	if got := get(httpapi.ReadyPath); got != http.StatusOK {
		t.Fatalf("ready before drain = %d", got)
	}
	if got := get(httpapi.LivePath); got != http.StatusOK {
		t.Fatalf("live before drain = %d", got)
	}
	if s.Draining() {
		t.Fatal("fresh server reports draining")
	}

	s.BeginDrain()
	s.BeginDrain() // idempotent
	if !s.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	if got := get(httpapi.ReadyPath); got != http.StatusServiceUnavailable {
		t.Fatalf("ready during drain = %d, want 503", got)
	}
	if got := get(httpapi.LivePath); got != http.StatusOK {
		t.Fatalf("live during drain = %d, want 200", got)
	}
	// Predictions still complete during drain.
	resp, out := predict(t, ts, httpapi.PredictRequest{Items: []int64{3, 7}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict during drain = %d", resp.StatusCode)
	}
	if len(out.Items) == 0 {
		t.Fatal("empty prediction during drain")
	}
}

func TestInFlightGauge(t *testing.T) {
	m := testModel(t)
	s, err := New(m, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.InFlight() != 0 {
		t.Fatalf("idle InFlight = %d", s.InFlight())
	}
}

// TestJITWorkspacesNotShared: each predictor-pool worker owns one compiled
// plan and with it one workspace. Concurrent requests of mixed lengths on a
// two-worker JIT server must each equal eager Recommend bit for bit; two
// in-flight requests sharing a workspace would overwrite each other's rows.
func TestJITWorkspacesNotShared(t *testing.T) {
	m, err := model.New("sasrec", model.Config{CatalogSize: 300, Dim: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(m, Options{Workers: 2, JIT: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.JITActive() {
		t.Fatal("JIT not active for sasrec")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				n := (c*17 + i*23) % 56
				session := make([]int64, n)
				for j := range session {
					session[j] = int64((c*31 + i*7 + j*13) % 300)
				}
				body, _ := json.Marshal(httpapi.PredictRequest{Items: session})
				resp, err := http.Post(ts.URL+httpapi.PredictPath, "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var out httpapi.PredictResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("status %d: %v", resp.StatusCode, err)
					return
				}
				want := m.Recommend(session)
				if len(out.Items) != len(want) {
					t.Errorf("session of %d: %d items, want %d", n, len(out.Items), len(want))
					return
				}
				for k, r := range want {
					if out.Items[k] != r.Item || math.Float32bits(out.Scores[k]) != math.Float32bits(r.Score) {
						t.Errorf("session of %d, rank %d: served %d:%v, eager %d:%v", n, k, out.Items[k], out.Scores[k], r.Item, r.Score)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestUnbatchedPredictAllocs is the allocation ratchet of the serving path:
// one unbatched POST /predictions through Server.Handler, in process, on a
// warm compiled plan. The bound is the count measured on the worker-pool
// path this batch-of-one path replaced (41: request and recorder set-up,
// JSON decode and encode, the model's answer); a batch-of-one hand-off
// that allocates fails it.
func TestUnbatchedPredictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	m, err := model.New("gru4rec", model.Config{CatalogSize: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(m, Options{Workers: 1, JIT: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	body := []byte(`{"items":[1,2,3]}`)
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, httpapi.PredictPath, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d", rec.Code)
		}
	}
	serve() // compile the plan's workspace
	const bound = 41
	if got := testing.AllocsPerRun(200, serve); got > bound {
		t.Fatalf("one unbatched prediction allocates %v times, bound %d", got, bound)
	}
}
