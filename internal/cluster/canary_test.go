package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"etude/internal/deploy"
	"etude/internal/httpapi"
	"etude/internal/model"
	"etude/internal/objstore"
	"etude/internal/server"
)

// publishRelease stages one gru4rec release with the given catalog size and
// seed. Catalog size is the latency knob: MIPS scoring is O(C), so a
// release with a much larger catalog is organically slower — no artificial
// sleeps needed to regress the canary.
func publishRelease(t *testing.T, store *deploy.Store, catalog int, seed int64) int {
	t.Helper()
	cfg := model.Config{CatalogSize: catalog, Seed: seed}
	m, err := model.New("gru4rec", cfg)
	if err != nil {
		t.Fatal(err)
	}
	weights, err := model.SaveWeights(m)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := store.Publish(model.Manifest{Model: "gru4rec", Config: cfg}, weights, "")
	if err != nil {
		t.Fatal(err)
	}
	return rel.Version
}

// canaryFixture deploys a release-backed service: v1 promoted, three pods
// serving CURRENT. Returns the store, the service and a load-stopper that
// keeps traffic flowing to every pod until the test ends.
func canaryFixture(t *testing.T) (*deploy.Store, *Service) {
	t.Helper()
	bucket := objstore.NewMemBucket()
	store := deploy.NewStore(bucket)
	v1 := publishRelease(t, store, 200, 1)
	if err := store.Promote(v1); err != nil {
		t.Fatal(err)
	}
	c := New(bucket)
	t.Cleanup(c.Teardown)
	svc, err := c.Deploy(context.Background(), "rec", PodSpec{
		Runtime:  RuntimeEtude,
		Releases: true,
		Server:   server.Options{Workers: 2},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
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
				resp, err := http.Post(svc.Endpoint()+httpapi.PredictPath, "application/json", bytes.NewReader(body))
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	t.Cleanup(func() { close(stop); wg.Wait() })
	return store, svc
}

func canaryCfg() CanaryConfig {
	return CanaryConfig{
		CanaryPods: 1,
		Observe:    50 * time.Millisecond,
		Timeout:    15 * time.Second,
		Thresholds: deploy.Thresholds{MinSamples: 10},
	}
}

// TestCanaryPromotesGoodRelease checks the mechanics of a promotion: CURRENT
// moves and every pod re-pins to the new version. A p99 ratio of 100 keeps
// scheduler noise from a loaded host (a 60 µs baseline against a 600 µs
// canary has been seen) from turning it into a rollback; the promote and
// rollback decisions themselves are tested on synthetic samples by
// deploy.TestDecideVerdicts.
func TestCanaryPromotesGoodRelease(t *testing.T) {
	store, svc := canaryFixture(t)
	v2 := publishRelease(t, store, 200, 2)

	cfg := canaryCfg()
	cfg.Thresholds.MaxP99Ratio = 100
	cc := NewCanaryController(store)
	out, err := cc.Rollout(context.Background(), svc, v2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Promoted || out.RolledBack || out.Quarantined {
		t.Fatalf("good release outcome = %+v, want promoted", out)
	}
	cur, err := store.Current()
	if err != nil || cur.Version != v2 {
		t.Fatalf("CURRENT after promote = %+v, %v, want v%d", cur, err, v2)
	}
	if cc.Promotions() != 1 || cc.Rollbacks() != 0 {
		t.Fatalf("counters promotions=%d rollbacks=%d", cc.Promotions(), cc.Rollbacks())
	}
	// Every pod converges onto v2 (the controller re-pins the baseline
	// cohort directly after moving CURRENT).
	for _, p := range svc.Pods() {
		v, err := scrapeModelVersion(p.URL())
		if err != nil || v != v2 {
			t.Fatalf("replica %d serves v%d (%v), want v%d", p.Replica(), v, err, v2)
		}
	}
}

func TestCanaryRollsBackLatencyRegression(t *testing.T) {
	store, svc := canaryFixture(t)
	// 1000x the catalog: O(C) MIPS scoring makes the candidate organically,
	// massively slower than the baseline — the paper's core scaling result
	// used as a rollback trigger.
	vBad := publishRelease(t, store, 200000, 3)

	cc := NewCanaryController(store)
	out, err := cc.Rollout(context.Background(), svc, vBad, canaryCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !out.RolledBack || out.Promoted {
		t.Fatalf("regressing release outcome = %+v, want rollback", out)
	}
	if out.CanaryP99 <= out.BaselineP99 {
		t.Fatalf("rollback without a latency signal: canary p99 %v vs baseline %v", out.CanaryP99, out.BaselineP99)
	}
	// The bad version never reached the baseline cohort, CURRENT still
	// names v1, and the release is quarantined against retries.
	cur, err := store.Current()
	if err != nil || cur.Version != out.BaselineVersion {
		t.Fatalf("CURRENT after rollback = %+v, %v, want v%d", cur, err, out.BaselineVersion)
	}
	if _, q := store.QuarantineReason(vBad); !q {
		t.Fatal("rolled-back release not quarantined")
	}
	for _, p := range svc.Pods() {
		if v, _ := scrapeModelVersion(p.URL()); v != out.BaselineVersion {
			t.Fatalf("replica %d still serves v%d after rollback", p.Replica(), v)
		}
	}
	if cc.Rollbacks() != 1 {
		t.Fatalf("Rollbacks = %d, want 1", cc.Rollbacks())
	}
}

func TestCanaryNeverServesCorruptRelease(t *testing.T) {
	store, svc := canaryFixture(t)
	vBad := publishRelease(t, store, 200, 4)
	rel, err := store.Get(vBad)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := store.Bucket().Get(rel.Artifacts[0].Key)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/3] ^= 0x40
	if err := store.Bucket().Put(rel.Artifacts[0].Key, blob); err != nil {
		t.Fatal(err)
	}

	cc := NewCanaryController(store)
	out, err := cc.Rollout(context.Background(), svc, vBad, canaryCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Quarantined || out.Promoted {
		t.Fatalf("corrupt release outcome = %+v, want quarantined", out)
	}
	if out.CanaryServed != 0 {
		t.Fatalf("corrupt release served %d requests, want 0", out.CanaryServed)
	}
	if _, q := store.QuarantineReason(vBad); !q {
		t.Fatal("corrupt release not quarantined in the store")
	}
	// Every pod kept the incumbent.
	for _, p := range svc.Pods() {
		if v, _ := scrapeModelVersion(p.URL()); v != out.BaselineVersion && v != 1 {
			t.Fatalf("replica %d serves v%d after refused deploy", p.Replica(), v)
		}
	}
}

func TestCanaryRejectsUndersizedService(t *testing.T) {
	store, svc := canaryFixture(t)
	v2 := publishRelease(t, store, 200, 5)
	cc := NewCanaryController(store)
	if _, err := cc.Rollout(context.Background(), svc, v2, CanaryConfig{CanaryPods: 3}); err == nil {
		t.Fatal("rollout with no baseline cohort must fail")
	}
}
