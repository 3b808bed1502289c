package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// PairMetric declares how one end-to-end metric of BENCHMARK.json is
// judged: its direction and the relative bound by which it may worsen.
type PairMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// Pair is one parent/change pair of benchmark runs on the same workload and
// seed, reduced to the metric values of their contract lines.
type Pair struct {
	Base, Change map[string]float64
}

// Verdicts of a paired comparison (choosing-metrics §8).
const (
	// VerdictGain: over at least ten pairs the change won nine tenths of
	// them, ties counting for neither side, and the medians differ by more
	// than the distance between the quartiles of the parent's own runs.
	VerdictGain = "gain"
	// VerdictWorse: the change's median is worse than the parent's by more
	// than the metric's bound.
	VerdictWorse = "worse"
	// VerdictUnresolved: neither of the above, and the parent's own spread
	// is wider than the bound, so "no worse" cannot be told from these runs.
	VerdictUnresolved = "unresolved"
	// VerdictNoWorse: not worse by more than the bound, on runs tight enough
	// to tell; it may be better, short of a shown gain.
	VerdictNoWorse = "no worse"
)

// Quartiles are the three cut points of a set of runs.
type Quartiles struct{ Q1, Median, Q3 float64 }

func quartilesOf(values []float64) Quartiles {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return Quartiles{quantile(sorted, 0.25), quantile(sorted, 0.5), quantile(sorted, 0.75)}
}

// PairRow is the comparison of one metric over all pairs.
type PairRow struct {
	Metric       PairMetric
	Base, Change Quartiles
	Wins, Losses int // pairs the change won and lost; the rest tied
	Pairs        int
	Verdict      string
}

// ReducePairs judges every metric over the pairs, in the order given.
// Metrics missing from any run are left out: a value that only sometimes
// appears cannot be compared.
func ReducePairs(metrics []PairMetric, pairs []Pair) []PairRow {
	var rows []PairRow
	for _, m := range metrics {
		row := PairRow{Metric: m, Pairs: len(pairs)}
		var base, change []float64
		for _, p := range pairs {
			b, okB := p.Base[m.Name]
			c, okC := p.Change[m.Name]
			if !okB || !okC {
				base = nil
				break
			}
			base, change = append(base, b), append(change, c)
			switch {
			case c == b:
			case (c < b) == (m.Better == "lower"):
				row.Wins++
			default:
				row.Losses++
			}
		}
		if len(base) == 0 {
			continue
		}
		row.Base, row.Change = quartilesOf(base), quartilesOf(change)
		spread := row.Base.Q3 - row.Base.Q1 // the parent's own run-to-run distance
		// gap is how much better the change's median is, in the metric's unit.
		gap := row.Base.Median - row.Change.Median
		if m.Better != "lower" {
			gap = -gap
		}
		scale := math.Abs(row.Base.Median)
		switch {
		case row.Pairs >= 10 && 10*row.Wins >= 9*row.Pairs && gap > spread:
			row.Verdict = VerdictGain
		case -gap > m.Bound*scale:
			row.Verdict = VerdictWorse
		case spread > m.Bound*scale:
			row.Verdict = VerdictUnresolved
		default:
			row.Verdict = VerdictNoWorse
		}
		rows = append(rows, row)
	}
	return rows
}

// WritePairTable prints one row per metric: both medians with their
// quartiles, the relative change, wins out of pairs, and the verdict.
func WritePairTable(w io.Writer, workload string, rows []PairRow) {
	fmt.Fprintf(w, "%-28s %-34s %-34s %8s %9s  %s\n", "metric", "base median [q1, q3]", "change median [q1, q3]", "change", "wins", "verdict")
	for _, r := range rows {
		rel := math.NaN()
		if r.Base.Median != 0 {
			rel = (r.Change.Median - r.Base.Median) / math.Abs(r.Base.Median) * 100
		}
		fmt.Fprintf(w, "%-28s %-34s %-34s %+7.1f%% %6d/%-2d  %s\n",
			workload+"/"+r.Metric.Name,
			fmt.Sprintf("%.4g [%.4g, %.4g] %s", r.Base.Median, r.Base.Q1, r.Base.Q3, r.Metric.Unit),
			fmt.Sprintf("%.4g [%.4g, %.4g] %s", r.Change.Median, r.Change.Q1, r.Change.Q3, r.Metric.Unit),
			rel, r.Wins, r.Pairs, r.Verdict)
	}
}
