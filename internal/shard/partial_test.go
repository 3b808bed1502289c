package shard_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"etude/internal/httpapi"
	"etude/internal/leakcheck"
	"etude/internal/model"
	"etude/internal/server"
	"etude/internal/shard"
	"etude/internal/trace"
)

// The tentpole's core property: with one of four shard groups blacked out,
// a partial-policy gateway keeps serving at 3/4 coverage, and the degraded
// answer is bit-identical to the exact top-k over the surviving catalog
// slices (Pool.TopKPartial is the oracle).
func TestGatewayPartialSurvivesShardBlackout(t *testing.T) {
	leakcheck.Check(t)
	m, err := model.New("gru4rec", model.Config{CatalogSize: 2_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	enc := m.(model.Encoder)
	parts, err := shard.Plan(2_000, 4)
	if err != nil {
		t.Fatal(err)
	}
	pickers := make([]shard.Picker, len(parts))
	for i, part := range parts {
		if i == 3 {
			pickers[i] = &scriptedPicker{} // shard 3: every replica gone
			continue
		}
		pod := newPartitionPod(t, m, part)
		pickers[i] = &scriptedPicker{urls: []string{pod.URL}}
	}
	gw, err := shard.NewGateway(pickers, shard.GatewayConfig{
		K:      m.Config().TopK,
		Policy: shard.Policy{Mode: shard.PolicyPartial, MinCoverage: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := shard.NewPool(enc.ItemEmbeddings(), 4)
	if err != nil {
		t.Fatal(err)
	}
	down := []bool{false, false, false, true}
	for i, session := range [][]int64{{1}, {5, 900, 1999}, {42, 42, 42, 17}, {1500, 3, 77}} {
		pr, err := gw.PredictPartial(context.Background(),
			httpapi.PredictRequest{SessionID: int64(i + 1), Items: session})
		if err != nil {
			t.Fatalf("PredictPartial(%v): %v", session, err)
		}
		if pr.Answered != 3 || pr.Shards != 4 || !pr.Partial() || pr.Coverage() != 0.75 {
			t.Fatalf("coverage metadata = %d/%d, want 3/4", pr.Answered, pr.Shards)
		}
		want, _ := pool.TopKPartial(enc.Encode(session), m.Config().TopK, down)
		if !reflect.DeepEqual(pr.Recs, want) {
			t.Fatalf("session %v: partial merge diverged from surviving-slice oracle\n got %v\nwant %v",
				session, pr.Recs, want)
		}
	}
	ps := gw.PartialStats()
	if ps.Partial() != 4 {
		t.Fatalf("Partial() = %d, want 4", ps.Partial())
	}
	// Three consecutive misses open shard 3's group breaker (default
	// threshold), so the fourth scatter skips the dead group outright.
	if ps.Skipped() == 0 {
		t.Fatal("group breaker never short-circuited the blacked-out shard")
	}
	if ps.LastCoverage() != 0.75 {
		t.Fatalf("LastCoverage() = %v, want 0.75", ps.LastCoverage())
	}
}

// Below the coverage floor the gateway must refuse to answer: a top-k over
// a quarter of the catalog is not a recommendation list, it is noise.
func TestGatewayPartialFailsBelowFloor(t *testing.T) {
	leakcheck.Check(t)
	m, _ := model.New("gru4rec", model.Config{CatalogSize: 100, Seed: 1})
	ok := newPartitionPod(t, m, shard.Partition{Index: 0, From: 0, To: 25})
	gw, err := shard.NewGateway([]shard.Picker{
		&scriptedPicker{urls: []string{ok.URL}},
		&scriptedPicker{}, // shards 1–3: blacked out
		&scriptedPicker{},
		&scriptedPicker{},
	}, shard.GatewayConfig{
		K:      m.Config().TopK,
		Policy: shard.Policy{Mode: shard.PolicyPartial, MinCoverage: 0.75},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = gw.PredictPartial(context.Background(), httpapi.PredictRequest{SessionID: 3, Items: []int64{1}})
	var ce *shard.CoverageError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want a CoverageError", err)
	}
	if ce.Shards != 4 || ce.Min != 3 || ce.Answered >= ce.Min {
		t.Fatalf("CoverageError = %+v, want answered < floor 3 of 4", ce)
	}
	if got := gw.PartialStats().FloorFailures(); got != 1 {
		t.Fatalf("FloorFailures() = %d, want 1", got)
	}
}

// The straggler sub-deadline: under partial policy a slow shard is bounded
// to a fraction of the remaining deadline budget, so the gateway answers
// with the survivors while the caller's deadline still has room — instead
// of riding the straggler to the wire and returning nothing.
func TestGatewayPartialDropsStragglerBeforeDeadline(t *testing.T) {
	leakcheck.Check(t)
	m, err := model.New("gru4rec", model.Config{CatalogSize: 500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	fast := newPartitionPod(t, m, shard.Partition{Index: 0, From: 0, To: 250})
	slowSrv, err := server.New(m, server.Options{Workers: 2, Partition: &shard.Partition{Index: 1, From: 250, To: 500}})
	if err != nil {
		t.Fatal(err)
	}
	slowHandler := slowSrv.Handler()
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(400 * time.Millisecond) // far past the caller's 250ms budget
		slowHandler.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { slow.Close(); slowSrv.Close() })

	gw, err := shard.NewGateway([]shard.Picker{
		&scriptedPicker{urls: []string{fast.URL}},
		&scriptedPicker{urls: []string{slow.URL}},
	}, shard.GatewayConfig{
		K:      m.Config().TopK,
		Policy: shard.Policy{Mode: shard.PolicyPartial, MinCoverage: 0.5, StragglerFraction: 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	start := time.Now()
	pr, err := gw.PredictPartial(ctx, httpapi.PredictRequest{SessionID: 9, Items: []int64{7, 31}})
	if err != nil {
		t.Fatalf("expected a partial answer, got %v", err)
	}
	// Sub-deadline = 0.4 × 250ms = 100ms; the merge must land well inside
	// the caller's budget, not at the 400ms straggler's pace.
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("partial answer took %v: the straggler was not dropped early", elapsed)
	}
	if pr.Coverage() != 0.5 || !pr.Partial() {
		t.Fatalf("coverage = %v partial=%v, want 0.5/true", pr.Coverage(), pr.Partial())
	}
}

// Satellite regression: a failed scatter used to Discard() its span, so
// failed requests vanished from the stage histograms and the tracer never
// learned the fleet was failing. They must finish with an error outcome.
func TestGatewayFailedRequestsAppearInTraceStats(t *testing.T) {
	leakcheck.Check(t)
	m, _ := model.New("gru4rec", model.Config{CatalogSize: 100, Seed: 1})
	ok := newPartitionPod(t, m, shard.Partition{Index: 0, From: 0, To: 50})
	gw, err := shard.NewGateway([]shard.Picker{
		&scriptedPicker{urls: []string{ok.URL}},
		&scriptedPicker{}, // shard 1 unavailable: fail-fast fails the request
	}, shard.GatewayConfig{K: m.Config().TopK})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Options{})
	gw.SetTracer(tr)
	if _, err := gw.PredictPartial(context.Background(), httpapi.PredictRequest{SessionID: 3, Items: []int64{1}}); err == nil {
		t.Fatal("expected the scatter to fail with shard 1 unavailable")
	}
	if got := tr.ErrorCount(); got != 1 {
		t.Fatalf("ErrorCount() = %d, want 1", got)
	}
	if snap := tr.TotalSnapshot(); snap.Count != 1 {
		t.Fatalf("failed request missing from the end-to-end histogram: count = %d", snap.Count)
	}
}

// Satellite regression: in a single-replica group every pick returns the
// primary's URL, so a fired hedge used to duplicate the request on the pod
// that was already slow. The gateway must skip the duplicate and count the
// blind spot.
func TestGatewayHedgeSameReplicaSkipped(t *testing.T) {
	leakcheck.Check(t)
	m, err := model.New("gru4rec", model.Config{CatalogSize: 500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	full := shard.Partition{Index: 0, From: 0, To: 500}
	slowSrv, err := server.New(m, server.Options{Workers: 2, Partition: &full})
	if err != nil {
		t.Fatal(err)
	}
	slowHandler := slowSrv.Handler()
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(80 * time.Millisecond) // outlives the hedge delay, then answers
		slowHandler.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { slow.Close(); slowSrv.Close() })

	gw, err := shard.NewGateway([]shard.Picker{
		&scriptedPicker{urls: []string{slow.URL}}, // single replica: backup == primary
	}, shard.GatewayConfig{
		K:     m.Config().TopK,
		Hedge: shard.HedgeConfig{Enabled: true, Delay: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	session := []int64{7, 31, 499}
	pr, err := gw.PredictPartial(context.Background(), httpapi.PredictRequest{SessionID: 2, Items: session})
	if err != nil {
		t.Fatal(err)
	}
	got := pr.Recs
	if want := m.Recommend(session); !reflect.DeepEqual(got, want) {
		t.Fatalf("result diverged\n got %v\nwant %v", got, want)
	}
	st := gw.Stats()
	if st.SameReplica() < 1 {
		t.Fatalf("SameReplica() = %d, want >= 1", st.SameReplica())
	}
	if st.Sent() != 0 {
		t.Fatalf("Sent() = %d, want 0: the duplicate hedge should never have launched", st.Sent())
	}
}

// Cancelling the caller's context mid-scatter must not leak sub-request
// goroutines or return a partial as success — leakcheck guards the exits.
func TestGatewayPartialCancelledContextLeaksNothing(t *testing.T) {
	leakcheck.Check(t)
	m, err := model.New("gru4rec", model.Config{CatalogSize: 200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(m, server.Options{Workers: 2, Partition: &shard.Partition{Index: 0, From: 0, To: 200}})
	if err != nil {
		t.Fatal(err)
	}
	handler := srv.Handler()
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(150 * time.Millisecond)
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { stall.Close(); srv.Close() })
	gw, err := shard.NewGateway([]shard.Picker{
		&scriptedPicker{urls: []string{stall.URL}},
	}, shard.GatewayConfig{
		K:      m.Config().TopK,
		Policy: shard.Policy{Mode: shard.PolicyPartial},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, err := gw.PredictPartial(ctx, httpapi.PredictRequest{SessionID: 1, Items: []int64{1}}); err == nil {
		t.Fatal("cancelled scatter must not report success")
	}
}
