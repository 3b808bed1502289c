package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"etude/internal/buildinfo"
)

// MetricSummary aggregates one metric across a grid's repeats.
type MetricSummary struct {
	Median float64 `json:"median"`
	// IQR is the interquartile range across repeats — the experiment's own
	// noise, from which the regression gate derives its band.
	IQR float64 `json:"iqr"`
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Values are the per-repeat observations in seed order, so a future
	// reader can re-derive any statistic.
	Values []float64 `json:"values"`
}

// Summary is the machine-readable result of one experiment across the
// grid's repeats — the content of BENCH_<experiment>.json.
type Summary struct {
	Experiment string `json:"experiment"`
	// Deterministic echoes the registry flag: metrics of deterministic
	// experiments are comparable across machines, wall-clock ones only
	// through their dimensionless keys.
	Deterministic bool    `json:"deterministic"`
	Scale         string  `json:"scale"`
	Seeds         []int64 `json:"seeds"`
	// Build identifies what ran where (git SHA, go version, GOMAXPROCS,
	// host), making every trajectory point attributable to a revision.
	Build buildinfo.Info `json:"build"`
	// GeneratedAt is RFC 3339 UTC, informational only — the gate never
	// compares timestamps.
	GeneratedAt string                   `json:"generated_at,omitempty"`
	Metrics     map[string]MetricSummary `json:"metrics"`
}

// Aggregate folds per-repeat metric maps (in seed order) into a Summary.
// Metrics missing from some repeats are dropped: a key that only
// sometimes appears cannot be compared across runs.
func Aggregate(experiment, scale string, deterministic bool, seeds []int64, repeats []map[string]float64) (*Summary, error) {
	if len(repeats) == 0 {
		return nil, fmt.Errorf("bench: aggregating %s: no repeats", experiment)
	}
	if len(seeds) != len(repeats) {
		return nil, fmt.Errorf("bench: aggregating %s: %d seeds vs %d repeats", experiment, len(seeds), len(repeats))
	}
	s := &Summary{
		Experiment:    experiment,
		Deterministic: deterministic,
		Scale:         scale,
		Seeds:         append([]int64(nil), seeds...),
		Build:         buildinfo.Get(),
		Metrics:       map[string]MetricSummary{},
	}
	for key := range repeats[0] {
		values := make([]float64, 0, len(repeats))
		for _, rep := range repeats {
			v, ok := rep[key]
			if !ok {
				values = nil
				break
			}
			values = append(values, v)
		}
		if values == nil {
			continue
		}
		s.Metrics[key] = summarize(values)
	}
	return s, nil
}

// summarize computes median and IQR (linear-interpolation quantiles).
func summarize(values []float64) MetricSummary {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return MetricSummary{
		Median: quantile(sorted, 0.5),
		IQR:    quantile(sorted, 0.75) - quantile(sorted, 0.25),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Values: values,
	}
}

// quantile interpolates the q-quantile of a sorted slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// SummaryFileName is the committed-baseline naming convention.
func SummaryFileName(experiment string) string {
	return "BENCH_" + experiment + ".json"
}

// WriteSummary writes a summary as indented JSON (stable key order via
// encoding/json's map sorting), ending with a newline so the files diff
// cleanly under git.
func WriteSummary(dir string, s *Summary) (string, error) {
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return "", fmt.Errorf("bench: marshaling summary %s: %w", s.Experiment, err)
	}
	raw = append(raw, '\n')
	path := filepath.Join(dir, SummaryFileName(s.Experiment))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return "", fmt.Errorf("bench: writing summary: %w", err)
	}
	return path, nil
}

// LoadSummary reads a BENCH_<experiment>.json file.
func LoadSummary(path string) (*Summary, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: reading summary: %w", err)
	}
	var s Summary
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("bench: parsing summary %s: %w", path, err)
	}
	if s.Experiment == "" || len(s.Metrics) == 0 {
		return nil, fmt.Errorf("bench: summary %s is missing experiment name or metrics", path)
	}
	return &s, nil
}
