package server

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"etude/internal/httpapi"
	"etude/internal/metrics"
	"etude/internal/model"
	"etude/internal/shard"
	"etude/internal/topk"
	"etude/internal/trace"
)

// Sharded serving must be invisible to clients: the scatter-gather path
// returns the same items, scores and order as the plain model.
func TestShardedServerMatchesUnsharded(t *testing.T) {
	m, err := model.New("gru4rec", model.Config{CatalogSize: 2_000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(m, Options{Workers: 2, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, session := range [][]int64{{1}, {7, 900, 1999}, {3, 3, 250, 42}} {
		resp, out := predict(t, ts, httpapi.PredictRequest{SessionID: 1, Items: session})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		want := m.Recommend(session)
		if len(out.Items) != len(want) {
			t.Fatalf("session %v: %d items, want %d", session, len(out.Items), len(want))
		}
		for i, rec := range want {
			if out.Items[i] != rec.Item || out.Scores[i] != rec.Score {
				t.Fatalf("session %v item %d: (%d, %v), want (%d, %v)",
					session, i, out.Items[i], out.Scores[i], rec.Item, rec.Score)
			}
		}
	}
}

// The sharded path's stages — scatter, wait, merge — and the hedge counters
// must round-trip through the /metrics exposition.
func TestShardedMetricsParseBack(t *testing.T) {
	m, err := model.New("gru4rec", model.Config{CatalogSize: 2_000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var hs shard.HedgeStats
	hs.RecordSent()
	hs.RecordSent()
	hs.RecordWin()
	hs.RecordCancelled()
	tr := trace.New(trace.Options{})
	s, err := New(m, Options{Workers: 2, Shards: 4, Tracer: tr, MetricsExtra: hs.WriteMetrics})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 5
	for i := 0; i < n; i++ {
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
	samples, err := metrics.ParsePromText(resp.Body)
	if err != nil {
		t.Fatalf("exposition did not parse back: %v", err)
	}
	byKey := map[string]float64{}
	for _, smp := range samples {
		byKey[smp.Key()] = smp.Value
	}
	for _, stage := range []string{"encoder-forward", "shard-scatter", "shard-wait", "shard-merge", "serialize"} {
		key := `etude_stage_seconds_count{stage="` + stage + `"}`
		if byKey[key] != n {
			t.Fatalf("stage %s count = %v, want %d (keys: %v)", stage, byKey[key], n, keysOf(byKey))
		}
	}
	if byKey["etude_shards"] != 4 {
		t.Fatalf("etude_shards = %v, want 4", byKey["etude_shards"])
	}
	if byKey["etude_hedges_sent_total"] != 2 || byKey["etude_hedge_wins_total"] != 1 ||
		byKey["etude_hedge_cancelled_total"] != 1 {
		t.Fatalf("hedge counters = %v/%v/%v, want 2/1/1",
			byKey["etude_hedges_sent_total"], byKey["etude_hedge_wins_total"], byKey["etude_hedge_cancelled_total"])
	}
}

func TestShardOptionsValidation(t *testing.T) {
	m, _ := model.New("gru4rec", model.Config{CatalogSize: 100, Seed: 1})
	part := shard.Partition{Index: 0, From: 0, To: 50}
	if _, err := New(m, Options{Shards: 2, Partition: &part}); err == nil {
		t.Fatal("Shards and Partition together must be rejected")
	}
	// RepeatNet mixes a session-local repeat distribution into its scores —
	// no encoder/MIPS decomposition, so it can neither shard nor partition.
	rn, err := model.New("repeatnet", model.Config{CatalogSize: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(rn, Options{Shards: 2}); err == nil {
		t.Fatal("sharding a non-Encoder model must be rejected")
	}
	if _, err := New(rn, Options{Partition: &part}); err == nil {
		t.Fatal("partitioning a non-Encoder model must be rejected")
	}
}

// A gateway-front server relays the scatter-gather tier's coverage
// metadata to clients: a partial merge answers 200 with
// X-Degraded: partial and the X-Coverage fraction stamped, and the
// /metrics exposition carries the partial-serving counters.
func TestGatewayFrontServerStampsDegradedHeaders(t *testing.T) {
	m, err := model.New("gru4rec", model.Config{CatalogSize: 2_000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := shard.Plan(2_000, 4)
	if err != nil {
		t.Fatal(err)
	}
	pickers := make([]shard.Picker, len(parts))
	for i, part := range parts {
		if i == 3 {
			pickers[i] = shard.NewStaticPicker() // shard 3: blacked out
			continue
		}
		pod, err := New(m, Options{Workers: 2, Partition: &part})
		if err != nil {
			t.Fatal(err)
		}
		pts := httptest.NewServer(pod.Handler())
		t.Cleanup(func() { pts.Close(); pod.Close() })
		pickers[i] = shard.NewStaticPicker(pts.URL)
	}
	gw, err := shard.NewGateway(pickers, shard.GatewayConfig{
		K:      m.Config().TopK,
		Policy: shard.Policy{Mode: shard.PolicyPartial, MinCoverage: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(nil, Options{Gateway: gw})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, out := predict(t, ts, httpapi.PredictRequest{SessionID: 1, Items: []int64{7, 900}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 from a partial merge", resp.StatusCode)
	}
	if got := resp.Header.Get(httpapi.HeaderDegraded); got != httpapi.DegradedPartial {
		t.Fatalf("X-Degraded = %q, want %q", got, httpapi.DegradedPartial)
	}
	cov, ok := httpapi.Coverage(resp.Header)
	if !ok || cov != 0.75 {
		t.Fatalf("X-Coverage = %v (ok=%v), want 0.75", cov, ok)
	}
	if len(out.Items) == 0 {
		t.Fatal("partial response carried no recommendations")
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
	if byKey["etude_shards"] != 4 {
		t.Fatalf("etude_shards = %v, want 4", byKey["etude_shards"])
	}
	if byKey["etude_partial_responses_total"] != 1 {
		t.Fatalf("etude_partial_responses_total = %v, want 1", byKey["etude_partial_responses_total"])
	}
	if byKey["etude_coverage_last"] != 0.75 {
		t.Fatalf("etude_coverage_last = %v, want 0.75", byKey["etude_coverage_last"])
	}
}

// Gateway mode is a pure relay front: it must reject a local model or any
// local scatter/partition/batching options alongside the gateway.
func TestGatewayFrontOptionsValidation(t *testing.T) {
	gw, err := shard.NewGateway([]shard.Picker{shard.NewStaticPicker("http://x")}, shard.GatewayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := model.New("gru4rec", model.Config{CatalogSize: 100, Seed: 1})
	if _, err := New(m, Options{Gateway: gw}); err == nil {
		t.Fatal("a gateway front with a local model must be rejected")
	}
	if _, err := New(nil, Options{Gateway: gw, Shards: 2}); err == nil {
		t.Fatal("Gateway with Shards must be rejected")
	}
	part := shard.Partition{Index: 0, From: 0, To: 50}
	if _, err := New(nil, Options{Gateway: gw, Partition: &part}); err == nil {
		t.Fatal("Gateway with Partition must be rejected")
	}
}

// A partition pod serves the full encoder but only its catalog rows: its
// responses are exactly the partition-local slice of the global results.
func TestPartitionServerServesPartialTopK(t *testing.T) {
	m, err := model.New("gru4rec", model.Config{CatalogSize: 1_000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	enc := m.(model.Encoder)
	part := shard.Partition{Index: 1, From: 500, To: 1_000}
	s, err := New(m, Options{Workers: 1, Partition: &part})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	session := []int64{12, 600, 999}
	resp, out := predict(t, ts, httpapi.PredictRequest{SessionID: 1, Items: session})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	r, err := shard.PartitionRetriever(enc, part)
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.Retrieve(enc.Encode(session), enc.Config().TopK)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int64, len(out.Items))
	copy(got, out.Items)
	wantItems := make([]int64, len(want))
	for i, rec := range want {
		wantItems[i] = rec.Item
		if rec.Item < int64(part.From) || rec.Item >= int64(part.To) {
			t.Fatalf("partition result %d outside [%d, %d)", rec.Item, part.From, part.To)
		}
	}
	if !reflect.DeepEqual(got, wantItems) {
		t.Fatalf("partition pod items = %v, want %v", got, wantItems)
	}
}

// nanModel is a model whose first recommendation carries a NaN score.
type nanModel struct{}

func (nanModel) Name() string         { return "nan" }
func (nanModel) Config() model.Config { return model.Config{CatalogSize: 4, TopK: 2} }
func (nanModel) Cost(int) model.Cost  { return model.Cost{} }
func (nanModel) Recommend([]int64) []topk.Result {
	return []topk.Result{{Item: 1, Score: float32(math.NaN())}, {Item: 2, Score: 1}}
}

// A non-finite score cannot be encoded as JSON. The server must answer 500
// with an error body instead of a 200 whose body the encoder abandoned, and
// a gateway must see that pod as a failed shard (a 500, not a decode error).
func TestNonFiniteScoreIsAnError(t *testing.T) {
	nan, err := New(nanModel{}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer nan.Close()
	nts := httptest.NewServer(nan.Handler())
	defer nts.Close()
	resp, _ := predict(t, nts, httpapi.PredictRequest{SessionID: 1, Items: []int64{1}})
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusInternalServerError || len(body) == 0 {
		t.Fatalf("NaN score answered %d with body %q, want 500 with an error", resp.StatusCode, body)
	}

	m, err := model.New("gru4rec", model.Config{CatalogSize: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pod, err := New(m, Options{Workers: 1, Partition: &shard.Partition{Index: 0, From: 0, To: 50}})
	if err != nil {
		t.Fatal(err)
	}
	defer pod.Close()
	pts := httptest.NewServer(pod.Handler())
	defer pts.Close()
	pickers := []shard.Picker{shard.NewStaticPicker(pts.URL), shard.NewStaticPicker(nts.URL)}
	req := httpapi.PredictRequest{SessionID: 2, Items: []int64{7}}

	partial, err := shard.NewGateway(pickers, shard.GatewayConfig{Policy: shard.Policy{Mode: shard.PolicyPartial}})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := partial.PredictPartial(context.Background(), req)
	if err != nil || pr.Answered != 1 || pr.Shards != 2 {
		t.Fatalf("partial gateway = %+v, %v; want 1 of 2 shards answered", pr, err)
	}

	failFast, err := shard.NewGateway(pickers, shard.GatewayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = failFast.PredictPartial(context.Background(), req)
	var se *httpapi.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusInternalServerError {
		t.Fatalf("fail-fast gateway error = %v, want the NaN shard's 500", err)
	}
}
