package shard_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"etude/internal/cluster"
	"etude/internal/httpapi"
	"etude/internal/leakcheck"
	"etude/internal/model"
	"etude/internal/server"
	"etude/internal/shard"
)

// newPartitionPod deploys one shard worker: a full server whose MIPS stage
// scans only the partition's catalog rows.
func newPartitionPod(t *testing.T, m model.Model, part shard.Partition) *httptest.Server {
	t.Helper()
	s, err := server.New(m, server.Options{Workers: 2, Partition: &part})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts
}

// The cross-pod tier's correctness property: scattering through real HTTP
// pods (JSON round-trip included) and merging reproduces the unsharded
// model bit for bit.
func TestGatewayMatchesUnshardedModel(t *testing.T) {
	leakcheck.Check(t)
	m, err := model.New("gru4rec", model.Config{CatalogSize: 2_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := shard.Plan(2_000, 4)
	if err != nil {
		t.Fatal(err)
	}
	pickers := make([]shard.Picker, len(parts))
	for i, part := range parts {
		pod := newPartitionPod(t, m, part)
		b := cluster.NewBalancer([]string{pod.URL}, cluster.BalancerConfig{})
		t.Cleanup(b.Close)
		pickers[i] = b
	}
	gw, err := shard.NewGateway(pickers, shard.GatewayConfig{K: m.Config().TopK})
	if err != nil {
		t.Fatal(err)
	}
	for _, session := range [][]int64{{1}, {5, 900, 1999}, {42, 42, 42, 17}, {1500, 3, 77, 256, 1024}} {
		want := m.Recommend(session)
		pr, err := gw.PredictPartial(context.Background(), httpapi.PredictRequest{SessionID: 1, Items: session})
		if err != nil {
			t.Fatalf("Predict(%v): %v", session, err)
		}
		got := pr.Recs
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("session %v: gateway top-k diverged\n got %v\nwant %v", session, got, want)
		}
	}
}

// scriptedPicker hands out URLs in a fixed order — a deterministic stand-in
// for the balancer's round-robin, so a test can force the primary onto a
// chosen replica.
type scriptedPicker struct {
	mu   sync.Mutex
	urls []string
	i    int
}

func (p *scriptedPicker) PickURL() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.urls) == 0 {
		return ""
	}
	url := p.urls[p.i%len(p.urls)]
	p.i++
	return url
}

func (p *scriptedPicker) Report(string, bool) {}

func TestGatewayHedgesSlowReplica(t *testing.T) {
	leakcheck.Check(t)
	m, err := model.New("gru4rec", model.Config{CatalogSize: 500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	full := shard.Partition{Index: 0, From: 0, To: 500}
	fast := newPartitionPod(t, m, full)
	// The slow replica answers correctly, eventually — long after the hedge
	// deadline, so the backup must win and the merge must not wait for it.
	slowSrv, err := server.New(m, server.Options{Workers: 2, Partition: &full})
	if err != nil {
		t.Fatal(err)
	}
	slowHandler := slowSrv.Handler()
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(300 * time.Millisecond)
		slowHandler.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { slow.Close(); slowSrv.Close() })

	picker := &scriptedPicker{urls: []string{slow.URL, fast.URL}}
	gw, err := shard.NewGateway([]shard.Picker{picker}, shard.GatewayConfig{
		K:     m.Config().TopK,
		Hedge: shard.HedgeConfig{Enabled: true, Delay: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	session := []int64{7, 31, 499}
	start := time.Now()
	pr, err := gw.PredictPartial(context.Background(), httpapi.PredictRequest{SessionID: 2, Items: session})
	if err != nil {
		t.Fatal(err)
	}
	got := pr.Recs
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("hedged request took %v: waited for the slow primary", elapsed)
	}
	if want := m.Recommend(session); !reflect.DeepEqual(got, want) {
		t.Fatalf("hedged result diverged\n got %v\nwant %v", got, want)
	}
	st := gw.Stats()
	if st.Sent() != 1 || st.Wins() != 1 || st.Cancelled() != 1 {
		t.Fatalf("hedge counters sent/wins/cancelled = %d/%d/%d, want 1/1/1",
			st.Sent(), st.Wins(), st.Cancelled())
	}
}

// A hedge fired with less remaining deadline budget than the hedge delay
// (the expected backup latency) is wasted work: the backup would be killed
// by the deadline before it could win. The gateway must skip it and count
// the suppression instead.
func TestGatewayHedgeSuppressedOnExhaustedBudget(t *testing.T) {
	leakcheck.Check(t)
	m, err := model.New("gru4rec", model.Config{CatalogSize: 500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	full := shard.Partition{Index: 0, From: 0, To: 500}
	fast := newPartitionPod(t, m, full)
	slowSrv, err := server.New(m, server.Options{Workers: 2, Partition: &full})
	if err != nil {
		t.Fatal(err)
	}
	slowHandler := slowSrv.Handler()
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(400 * time.Millisecond)
		slowHandler.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { slow.Close(); slowSrv.Close() })

	// Primary lands on the slow replica; the hedge fires at 200ms with only
	// ~50ms of the 250ms budget left — not enough for a 200ms backup.
	picker := &scriptedPicker{urls: []string{slow.URL, fast.URL}}
	gw, err := shard.NewGateway([]shard.Picker{picker}, shard.GatewayConfig{
		K:     m.Config().TopK,
		Hedge: shard.HedgeConfig{Enabled: true, Delay: 200 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	if _, err := gw.PredictPartial(ctx, httpapi.PredictRequest{SessionID: 4, Items: []int64{7, 31}}); err == nil {
		t.Fatal("expected the deadline to expire with the hedge suppressed")
	}
	st := gw.Stats()
	if st.Suppressed() != 1 {
		t.Fatalf("Suppressed() = %d, want 1", st.Suppressed())
	}
	if st.Sent() != 0 {
		t.Fatalf("Sent() = %d, want 0: the backup should never have launched", st.Sent())
	}
}

func TestGatewayFailsWhenShardUnavailable(t *testing.T) {
	leakcheck.Check(t)
	// Exactness over availability: a shard with no routable replica fails
	// the whole request — a silently missing partition would return a
	// plausible but wrong top-k.
	m, _ := model.New("gru4rec", model.Config{CatalogSize: 100, Seed: 1})
	ok := newPartitionPod(t, m, shard.Partition{Index: 0, From: 0, To: 50})
	gw, err := shard.NewGateway([]shard.Picker{
		&scriptedPicker{urls: []string{ok.URL}},
		&scriptedPicker{}, // shard 1: every replica gone
	}, shard.GatewayConfig{K: m.Config().TopK})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.PredictPartial(context.Background(), httpapi.PredictRequest{SessionID: 3, Items: []int64{1}}); err == nil {
		t.Fatal("expected the scatter to fail with shard 1 unavailable")
	}
}
