package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"etude/internal/httpapi"
	"etude/internal/model"
	"etude/internal/powerlaw"
	"etude/internal/server"
	"etude/internal/trace"
)

// BreakdownConfig controls the per-stage latency decomposition experiment:
// where inside the serving path does a request's time actually go, per model
// and per catalog size?
type BreakdownConfig struct {
	// Models to decompose (default: gru4rec, sasrec, stamp — a recurrent, a
	// self-attentive and an attention/memory architecture).
	Models []string
	// CatalogSizes to sweep. The split shifts with C: the encoder is
	// catalog-independent while the MIPS top-k scan grows linearly.
	CatalogSizes []int
	// Requests is the number of serial traced requests per cell.
	Requests int
	// AlphaLength shapes the session lengths (bol.com marginals).
	AlphaLength float64
	// Seed drives session sampling.
	Seed int64
}

// DefaultBreakdownConfig returns a three-model, two-catalog sweep.
func DefaultBreakdownConfig() BreakdownConfig {
	return BreakdownConfig{
		Models:       []string{"gru4rec", "sasrec", "stamp"},
		CatalogSizes: []int{10_000, 100_000},
		Requests:     200,
		AlphaLength:  2.2,
		Seed:         1,
	}
}

// BreakdownStage is one stage's latency summary within a cell.
type BreakdownStage struct {
	Stage string        `json:"stage"`
	Count int64         `json:"count"`
	P50   time.Duration `json:"p50"`
	P99   time.Duration `json:"p99"`
}

// BreakdownRow is one model × catalog cell: per-stage quantiles plus the
// reconciliation of the stage sum against the end-to-end latency.
type BreakdownRow struct {
	Model       string           `json:"model"`
	CatalogSize int              `json:"catalog_size"`
	Stages      []BreakdownStage `json:"stages"`
	TotalP50    time.Duration    `json:"total_p50"`
	TotalP99    time.Duration    `json:"total_p99"`
	// StageSumP50 is the sum of the per-stage p50s. On a serial, unbatched
	// drive it must reconcile with TotalP50: the stages tile the request.
	StageSumP50 time.Duration `json:"stage_sum_p50"`
	// ReconcileErr is |StageSumP50/TotalP50 − 1| — how much of the
	// end-to-end latency the trace decomposition fails to account for.
	ReconcileErr float64 `json:"reconcile_err"`
}

// BreakdownResult is the full sweep.
type BreakdownResult struct {
	Rows []BreakdownRow `json:"rows"`
}

// Breakdown runs the experiment: for each model × catalog size, a traced
// eager-mode server (JIT fuses encoder and scan into one opaque call, so the
// decomposition runs eager) answers Requests serial predictions through the
// full HTTP handler, and the tracer's per-stage histograms are summarised.
func Breakdown(cfg BreakdownConfig) (*BreakdownResult, error) {
	if len(cfg.Models) == 0 {
		cfg.Models = DefaultBreakdownConfig().Models
	}
	if len(cfg.CatalogSizes) == 0 {
		cfg.CatalogSizes = DefaultBreakdownConfig().CatalogSizes
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 200
	}
	if cfg.AlphaLength == 0 {
		cfg.AlphaLength = 2.2
	}
	res := &BreakdownResult{}
	for _, name := range cfg.Models {
		for _, c := range cfg.CatalogSizes {
			row, err := breakdownCell(cfg, name, c)
			if err != nil {
				return nil, fmt.Errorf("experiments: breakdown %s/C=%d: %w", name, c, err)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

func breakdownCell(cfg BreakdownConfig, name string, catalog int) (BreakdownRow, error) {
	m, err := model.New(name, model.Config{CatalogSize: catalog, Seed: cfg.Seed})
	if err != nil {
		return BreakdownRow{}, err
	}
	tr := trace.New(trace.Options{})
	srv, err := server.New(m, server.Options{Workers: 1, JIT: false, Tracer: tr})
	if err != nil {
		return BreakdownRow{}, err
	}
	defer srv.Close()
	handler := srv.Handler()

	lengths, err := powerlaw.New(cfg.AlphaLength, 1)
	if err != nil {
		return BreakdownRow{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.Requests; i++ {
		session := sampleSession(rng, lengths, catalog)
		body, err := json.Marshal(httpapi.PredictRequest{
			SessionID: int64(i),
			RequestID: fmt.Sprintf("bd-%d", i),
			Items:     session,
		})
		if err != nil {
			return BreakdownRow{}, err
		}
		req := httptest.NewRequest(http.MethodPost, httpapi.PredictPath, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return BreakdownRow{}, fmt.Errorf("request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}

	row := BreakdownRow{Model: name, CatalogSize: catalog}
	for s := trace.Stage(0); s < trace.NumStages; s++ {
		snap := tr.StageSnapshot(s)
		if snap.Count == 0 {
			continue // e.g. batch-assembly never fires on the unbatched path
		}
		row.Stages = append(row.Stages, BreakdownStage{
			Stage: s.String(), Count: snap.Count, P50: snap.P50, P99: snap.P99,
		})
	}
	total := tr.TotalSnapshot()
	row.TotalP50, row.TotalP99 = total.P50, total.P99
	row.reconcile()
	return row, nil
}

// reconcile sets StageSumP50 and ReconcileErr from Stages and TotalP50.
func (row *BreakdownRow) reconcile() {
	row.StageSumP50 = 0
	for _, st := range row.Stages {
		row.StageSumP50 += st.P50
	}
	if row.TotalP50 > 0 {
		row.ReconcileErr = math.Abs(float64(row.StageSumP50)/float64(row.TotalP50) - 1)
	}
}

// Render prints one stage table per cell with the stage-sum vs end-to-end
// reconciliation line.
func (r *BreakdownResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "breakdown — where a request's time goes, per stage (serial, eager, unbatched)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "\n%s  C=%d\n", row.Model, row.CatalogSize)
		fmt.Fprintf(&b, "  %-18s %8s %14s %14s\n", "stage", "count", "p50", "p99")
		for _, st := range row.Stages {
			fmt.Fprintf(&b, "  %-18s %8d %14s %14s\n",
				st.Stage, st.Count, st.P50.Round(time.Microsecond), st.P99.Round(time.Microsecond))
		}
		fmt.Fprintf(&b, "  %-18s %8s %14s %14s\n", "end-to-end", "", row.TotalP50.Round(time.Microsecond), row.TotalP99.Round(time.Microsecond))
		fmt.Fprintf(&b, "  stage-sum p50 %s vs e2e p50 %s (unaccounted %.1f%%)\n",
			row.StageSumP50.Round(time.Microsecond), row.TotalP50.Round(time.Microsecond), 100*row.ReconcileErr)
	}
	return b.String()
}

// Metrics emits the stage decomposition. Breakdown is wall-clock, so the
// portable keys are the dimensionless reconciliation error and per-stage
// latency shares; absolute stage latencies ride along (with `stage=`
// markers) for same-host drift attribution.
func (r *BreakdownResult) Metrics() map[string]float64 {
	m := map[string]float64{}
	for _, row := range r.Rows {
		pre := fmt.Sprintf("%s/c%d", keyify(row.Model), row.CatalogSize)
		m[pre+"/total/p50_ms"] = msF(row.TotalP50)
		m[pre+"/total/p99_ms"] = msF(row.TotalP99)
		m[pre+"/reconcile_err"] = row.ReconcileErr
		for _, st := range row.Stages {
			spre := pre + "/stage=" + keyify(st.Stage)
			m[spre+"/p50_ms"] = msF(st.P50)
			m[spre+"/p99_ms"] = msF(st.P99)
			m[spre+"/p50_share"] = ratio(msF(st.P50), msF(row.StageSumP50))
		}
	}
	return m
}
