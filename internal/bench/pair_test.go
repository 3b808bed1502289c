package bench

import (
	"bytes"
	"strings"
	"testing"
)

func pairsOf(name string, base, change []float64) []Pair {
	pairs := make([]Pair, len(base))
	for i := range base {
		pairs[i] = Pair{Base: map[string]float64{name: base[i]}, Change: map[string]float64{name: change[i]}}
	}
	return pairs
}

func TestReducePairsVerdicts(t *testing.T) {
	lower := PairMetric{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25}
	higher := PairMetric{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.25}
	tight := PairMetric{Name: "alloc_kb_per_req", Unit: "KB", Better: "lower", Bound: 0.02}
	base := []float64{27, 28, 27.5, 29, 27.2, 28.1, 27.9, 28.4, 27.1, 28.8}
	cases := []struct {
		name    string
		metric  PairMetric
		base    []float64
		change  []float64
		verdict string
		wins    int
		losses  int
	}{
		{"clear gain", lower, base, []float64{12, 13, 12.5, 12.2, 12.9, 13.1, 12.4, 12.6, 12.8, 12.1}, VerdictGain, 10, 0},
		{"nine of ten is still a gain", lower, base, []float64{12, 13, 12.5, 40, 12.9, 13.1, 12.4, 12.6, 12.8, 12.1}, VerdictGain, 9, 1},
		{"eight of ten is not", lower, base, []float64{12, 13, 12.5, 40, 41, 13.1, 12.4, 12.6, 12.8, 12.1}, VerdictNoWorse, 8, 2},
		{"wins every pair by less than the parent's spread", lower, base, []float64{26.9, 27.9, 27.4, 28.9, 27.1, 28, 27.8, 28.3, 27, 28.7}, VerdictNoWorse, 10, 0},
		{"higher is better", higher, []float64{46, 47, 48, 47, 46.5, 46, 47, 48, 47, 46.5}, []float64{90, 91, 92, 89, 93, 90, 91, 92, 89, 93}, VerdictGain, 10, 0},
		{"five pairs cannot show a gain", higher, []float64{46, 47, 48, 47, 46.5}, []float64{90, 91, 92, 89, 93}, VerdictNoWorse, 5, 0},
		{"worse beyond the bound", higher, []float64{46, 47, 48, 47, 46.5}, []float64{30, 31, 32, 29, 33}, VerdictWorse, 0, 5},
		{"ties count for neither side", tight, []float64{10, 10, 10, 10}, []float64{10, 10, 10, 10}, VerdictNoWorse, 0, 0},
		{"spread wider than the bound", tight, []float64{10, 11, 12, 9}, []float64{10.1, 11.1, 11.9, 9.1}, VerdictUnresolved, 1, 3},
		{"worse within a wide spread is still worse", tight, []float64{10, 11, 12, 9}, []float64{13, 14, 15, 12}, VerdictWorse, 0, 4},
	}
	for _, tc := range cases {
		rows := ReducePairs([]PairMetric{tc.metric}, pairsOf(tc.metric.Name, tc.base, tc.change))
		if len(rows) != 1 {
			t.Fatalf("%s: %d rows", tc.name, len(rows))
		}
		r := rows[0]
		if r.Verdict != tc.verdict || r.Wins != tc.wins || r.Losses != tc.losses || r.Pairs != len(tc.base) {
			t.Errorf("%s: verdict %s wins %d losses %d of %d, want %s %d %d", tc.name, r.Verdict, r.Wins, r.Losses, r.Pairs, tc.verdict, tc.wins, tc.losses)
		}
	}
}

func TestReducePairsQuartilesAndMissingMetrics(t *testing.T) {
	m := PairMetric{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25}
	absent := PairMetric{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}
	pairs := pairsOf(m.Name, []float64{4, 1, 3, 2, 5}, []float64{2, 0.5, 1.5, 1, 2.5})
	pairs[2].Base[absent.Name] = 1 // present in one run only: dropped
	rows := ReducePairs([]PairMetric{absent, m}, pairs)
	if len(rows) != 1 || rows[0].Metric.Name != m.Name {
		t.Fatalf("rows = %+v, want only %s", rows, m.Name)
	}
	r := rows[0]
	if r.Base != (Quartiles{2, 3, 4}) || r.Change.Median != 1.5 {
		t.Fatalf("base quartiles %+v, change median %v", r.Base, r.Change.Median)
	}
	// Wins every pair, but the medians differ by 1.5, inside the parent's
	// quartile distance of 2.
	if r.Verdict == VerdictGain {
		t.Fatalf("verdict %s claims a gain inside the parent's spread", r.Verdict)
	}
	var buf bytes.Buffer
	WritePairTable(&buf, "scan_1m", rows)
	if out := buf.String(); !strings.Contains(out, "scan_1m/lat_p50_ms") || !strings.Contains(out, "5/5") || !strings.Contains(out, "-50.0%") {
		t.Fatalf("table:\n%s", out)
	}
}
