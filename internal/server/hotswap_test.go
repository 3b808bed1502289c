package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"etude/internal/batching"
	"etude/internal/deploy"
	"etude/internal/httpapi"
	"etude/internal/metrics"
	"etude/internal/model"
	"etude/internal/objstore"
)

// publishTestRelease stages one release (gru4rec, small catalog) with a
// weight archive derived from seed and returns its version.
func publishTestRelease(t *testing.T, store *deploy.Store, seed int64) int {
	t.Helper()
	m, err := model.New("gru4rec", model.Config{CatalogSize: 300, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	weights, err := model.SaveWeights(m)
	if err != nil {
		t.Fatal(err)
	}
	manifest := model.Manifest{Model: "gru4rec", Config: model.Config{CatalogSize: 300, Seed: seed}}
	rel, err := store.Publish(manifest, weights, "")
	if err != nil {
		t.Fatal(err)
	}
	return rel.Version
}

func TestLoadFromReleasesServesCurrent(t *testing.T) {
	store := deploy.NewStore(objstore.NewMemBucket())
	v1 := publishTestRelease(t, store, 1)
	if err := store.Promote(v1); err != nil {
		t.Fatal(err)
	}
	s, err := LoadFromReleases(store, 0, 0, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.ModelVersion() != v1 {
		t.Fatalf("ModelVersion = %d, want %d", s.ModelVersion(), v1)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp := predictWithID(t, ts, "", httpapi.PredictRequest{Items: []int64{1, 2}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(httpapi.HeaderModelVersion); got != strconv.Itoa(v1) {
		t.Fatalf("%s = %q, want %d", httpapi.HeaderModelVersion, got, v1)
	}
}

func TestAdminDeploySwapsAndRefusesCorrupt(t *testing.T) {
	store := deploy.NewStore(objstore.NewMemBucket())
	v1 := publishTestRelease(t, store, 1)
	if err := store.Promote(v1); err != nil {
		t.Fatal(err)
	}
	s, err := LoadFromReleases(store, 0, 0, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	deployVersion := func(v int) *http.Response {
		t.Helper()
		body, _ := json.Marshal(httpapi.DeployRequest{Version: v})
		resp, err := http.Post(ts.URL+httpapi.DeployPath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// A good release swaps in and stamps subsequent responses.
	v2 := publishTestRelease(t, store, 2)
	if resp := deployVersion(v2); resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy v2 status = %d", resp.StatusCode)
	}
	if s.ModelVersion() != v2 || s.Swaps() != 1 {
		t.Fatalf("after deploy: version=%d swaps=%d", s.ModelVersion(), s.Swaps())
	}
	resp := predictWithID(t, ts, "", httpapi.PredictRequest{Items: []int64{1}})
	if got := resp.Header.Get(httpapi.HeaderModelVersion); got != strconv.Itoa(v2) {
		t.Fatalf("%s = %q, want %d", httpapi.HeaderModelVersion, got, v2)
	}

	// A bit-flipped release must answer 422, never serve, and end up
	// quarantined in the store.
	v3 := publishTestRelease(t, store, 3)
	rel3, err := store.Get(v3)
	if err != nil {
		t.Fatal(err)
	}
	wkey := rel3.Artifacts[0].Key
	blob, err := store.Bucket().Get(wkey)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x10
	if err := store.Bucket().Put(wkey, blob); err != nil {
		t.Fatal(err)
	}
	if resp := deployVersion(v3); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("deploy corrupted v3 status = %d, want 422", resp.StatusCode)
	}
	if s.ModelVersion() != v2 {
		t.Fatalf("corrupted release displaced the incumbent: serving v%d", s.ModelVersion())
	}
	if s.VerifyFailures() != 1 {
		t.Fatalf("VerifyFailures = %d, want 1", s.VerifyFailures())
	}
	if _, q := store.QuarantineReason(v3); !q {
		t.Fatal("corrupted release not quarantined in the store")
	}
	// Retrying answers 409 now: the quarantine marker outlives the attempt.
	if resp := deployVersion(v3); resp.StatusCode != http.StatusConflict {
		t.Fatalf("re-deploy quarantined v3 status = %d, want 409", resp.StatusCode)
	}
	// An absent version answers 404.
	if resp := deployVersion(99); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deploy absent version status = %d, want 404", resp.StatusCode)
	}
}

func TestHotSwapUnderLoadDropsNothing(t *testing.T) {
	store := deploy.NewStore(objstore.NewMemBucket())
	v1 := publishTestRelease(t, store, 1)
	if err := store.Promote(v1); err != nil {
		t.Fatal(err)
	}
	s, err := LoadFromReleases(store, 0, 0, Options{Workers: 4, MaxPending: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Hammer predictions from several clients while swapping versions in the
	// middle: every response must be a 200 stamped with v1 or v2 — no
	// errors, no unversioned responses, nothing dropped.
	const clients = 4
	var wg sync.WaitGroup
	var failures atomic.Int64
	versions := [2]atomic.Int64{}
	stop := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(httpapi.PredictRequest{Items: []int64{1, 2, 3}})
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+httpapi.PredictPath, "application/json", bytes.NewReader(body))
				if err != nil {
					failures.Add(1)
					return
				}
				ver := resp.Header.Get(httpapi.HeaderModelVersion)
				resp.Body.Close()
				switch {
				case resp.StatusCode != http.StatusOK:
					failures.Add(1)
				case ver == "1":
					versions[0].Add(1)
				case ver == "2":
					versions[1].Add(1)
				default:
					failures.Add(1)
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	v2 := publishTestRelease(t, store, 2)
	if err := s.ApplyRelease(v2); err != nil {
		t.Fatalf("ApplyRelease under load: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed or lost their version during the swap", n)
	}
	if versions[0].Load() == 0 || versions[1].Load() == 0 {
		t.Fatalf("expected traffic on both versions across the swap, got v1=%d v2=%d",
			versions[0].Load(), versions[1].Load())
	}
}

func TestWatchReleasesFollowsPromotions(t *testing.T) {
	store := deploy.NewStore(objstore.NewMemBucket())
	v1 := publishTestRelease(t, store, 1)
	if err := store.Promote(v1); err != nil {
		t.Fatal(err)
	}
	s, err := LoadFromReleases(store, 0, 5*time.Millisecond, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	v2 := publishTestRelease(t, store, 2)
	if err := store.Promote(v2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.ModelVersion() != v2 {
		if time.Now().After(deadline) {
			t.Fatalf("watcher never converged onto v%d (serving v%d)", v2, s.ModelVersion())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s.Swaps() == 0 {
		t.Fatal("watcher converged without counting a swap")
	}
}

func TestApplyReleaseWithoutStore(t *testing.T) {
	s, _ := New(testModel(t), Options{})
	defer s.Close()
	if err := s.ApplyRelease(1); err == nil {
		t.Fatal("ApplyRelease without a release store must fail")
	}
	// And the admin endpoint answers 404 rather than pretending.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(httpapi.DeployRequest{Version: 1})
	resp, err := http.Post(ts.URL+httpapi.DeployPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deploy without store status = %d, want 404", resp.StatusCode)
	}
}

func TestVersionMetricsExposed(t *testing.T) {
	store := deploy.NewStore(objstore.NewMemBucket())
	v1 := publishTestRelease(t, store, 1)
	if err := store.Promote(v1); err != nil {
		t.Fatal(err)
	}
	s, err := LoadFromReleases(store, 0, 0, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 3; i++ {
		if resp := predictWithID(t, ts, "", httpapi.PredictRequest{Items: []int64{1}}); resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + httpapi.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := metrics.ParsePromText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]float64{}
	for _, smp := range samples {
		byKey[smp.Key()] = smp.Value
	}
	if byKey["etude_model_version"] != float64(v1) {
		t.Fatalf("etude_model_version = %v, want %d", byKey["etude_model_version"], v1)
	}
	reqKey := `etude_version_requests_total{version="` + strconv.Itoa(v1) + `"}`
	if byKey[reqKey] != 3 {
		t.Fatalf("%s = %v, want 3", reqKey, byKey[reqKey])
	}
	latKey := `etude_version_request_seconds_count{version="` + strconv.Itoa(v1) + `"}`
	if byKey[latKey] != 3 {
		t.Fatalf("%s = %v, want 3", latKey, byKey[latKey])
	}
	if _, ok := byKey["etude_artifact_verify_failures_total"]; !ok {
		t.Fatal("missing etude_artifact_verify_failures_total")
	}
	if _, ok := byKey["etude_model_swaps_total"]; !ok {
		t.Fatal("missing etude_model_swaps_total")
	}
}

func TestLoadFromReleasesRefusesCorruptCurrent(t *testing.T) {
	store := deploy.NewStore(objstore.NewMemBucket())
	v1 := publishTestRelease(t, store, 1)
	if err := store.Promote(v1); err != nil {
		t.Fatal(err)
	}
	rel, err := store.Get(v1)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := store.Bucket().Get(rel.Artifacts[0].Key)
	if err != nil {
		t.Fatal(err)
	}
	blob[0] ^= 0xFF
	if err := store.Bucket().Put(rel.Artifacts[0].Key, blob); err != nil {
		t.Fatal(err)
	}
	var ve *deploy.VerifyError
	if _, err := LoadFromReleases(store, 0, 0, Options{}); !errors.As(err, &ve) {
		t.Fatalf("LoadFromReleases over corrupt CURRENT = %v, want *deploy.VerifyError", err)
	}
}

// served is one in-process prediction's outcome.
type served struct {
	code    int
	version string
	batch   string
	body    httpapi.PredictResponse
}

// serveAsync answers one prediction through the server's handler on its own
// goroutine.
func serveAsync(s *Server, session []int64) <-chan served {
	out := make(chan served, 1)
	go func() {
		body, _ := json.Marshal(httpapi.PredictRequest{Items: session})
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, httpapi.PredictPath, bytes.NewReader(body)))
		res := served{code: rec.Code, version: rec.Header().Get(httpapi.HeaderModelVersion), batch: rec.Header().Get(httpapi.HeaderBatchSize)}
		_ = json.Unmarshal(rec.Body.Bytes(), &res.body)
		out <- res
	}()
	return out
}

// checkVersionConsistent fails unless the response is bit for bit the eager
// Recommend of the release its X-Model-Version header names.
func checkVersionConsistent(t *testing.T, store *deploy.Store, session []int64, res served) {
	t.Helper()
	if res.code != http.StatusOK {
		t.Fatalf("status = %d, want 200", res.code)
	}
	v, err := strconv.Atoi(res.version)
	if err != nil {
		t.Fatalf("%s = %q: %v", httpapi.HeaderModelVersion, res.version, err)
	}
	m, _, err := store.LoadVersion(v)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Recommend(session)
	if len(res.body.Items) != len(want) {
		t.Fatalf("served %d items, v%d's eager Recommend %d", len(res.body.Items), v, len(want))
	}
	for i, r := range want {
		if res.body.Items[i] != r.Item || math.Float32bits(res.body.Scores[i]) != math.Float32bits(r.Score) {
			t.Fatalf("rank %d: served %d:%v, v%d's eager Recommend %d:%v — versions mixed",
				i, res.body.Items[i], res.body.Scores[i], v, r.Item, r.Score)
		}
	}
}

// versionMixStore publishes two releases that answer session differently
// and promotes the first.
func versionMixStore(t *testing.T, session []int64) (store *deploy.Store, v2 int) {
	t.Helper()
	store = deploy.NewStore(objstore.NewMemBucket())
	v1 := publishTestRelease(t, store, 1)
	if err := store.Promote(v1); err != nil {
		t.Fatal(err)
	}
	v2 = publishTestRelease(t, store, 2)
	m1, _, _ := store.LoadVersion(v1)
	m2, _, _ := store.LoadVersion(v2)
	if m1.Recommend(session)[0] == m2.Recommend(session)[0] {
		t.Fatal("the two releases answer alike: the test could not see a mix")
	}
	return store, v2
}

// TestBatchedSwapBeforeFlushKeepsAdmissionVersion: requests admitted on v1
// that wait in the batch buffer while v2 lands are computed by v1, the
// version their X-Model-Version header names, even when they share the
// batch with requests admitted on v2 after the swap. The batch of four is
// two same-runtime runs of two; with JIT on each run is encoded and scanned
// as one batch, which must read its own runtime's plans and catalog.
func TestBatchedSwapBeforeFlushKeepsAdmissionVersion(t *testing.T) {
	sessions := [][]int64{{1, 2, 3}, {4, 5}}
	for _, jit := range []bool{false, true} {
		store, v2 := versionMixStore(t, sessions[0])
		s, err := LoadFromReleases(store, 0, 0, Options{Workers: 1, JIT: jit, Batch: &batching.Config{MaxBatch: 4, FlushEvery: time.Minute}})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		v1 := s.ModelVersion()
		var res []<-chan served
		for _, session := range sessions {
			res = append(res, serveAsync(s, session))
			waitFor(t, func() bool { return s.batcher.Pending() == len(res) })
		}
		if err := s.ApplyRelease(v2); err != nil {
			t.Fatal(err)
		}
		if s.batcher.Pending() != 2 {
			t.Fatal("the flush fired before the swap landed")
		}
		for _, session := range sessions {
			res = append(res, serveAsync(s, session))
		}
		for i, ch := range res {
			r := <-ch
			checkVersionConsistent(t, store, sessions[i%2], r)
			want := strconv.Itoa([]int{v1, v2}[i/2])
			if r.version != want || r.batch != "4" {
				t.Fatalf("JIT %v, request %d: served by version %s in a batch of %s, want version %s in a batch of 4", jit, i, r.version, r.batch, want)
			}
		}
	}
}

// TestUnbatchedSwapWhileQueuedKeepsAdmissionVersion: the batch-of-one
// variant. A request admitted on v1 that waits for the only executor while
// v2 lands is computed by v1.
func TestUnbatchedSwapWhileQueuedKeepsAdmissionVersion(t *testing.T) {
	session := []int64{4, 5}
	store, v2 := versionMixStore(t, session)
	s, err := LoadFromReleases(store, 0, 0, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Park v1's only predictor: the first request takes the executor and
	// waits there, the second queues behind it.
	pool := s.rt.Load().pool
	p := <-pool
	unpark := sync.OnceFunc(func() { pool <- p })
	defer unpark()
	first := serveAsync(s, session)
	waitFor(t, func() bool { return s.batcher.Pending() == 1 })
	second := serveAsync(s, session)
	waitFor(t, func() bool { return s.batcher.Pending() == 2 })
	if err := s.ApplyRelease(v2); err != nil {
		t.Fatal(err)
	}
	unpark()
	checkVersionConsistent(t, store, session, <-first)
	checkVersionConsistent(t, store, session, <-second)
}
