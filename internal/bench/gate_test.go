package bench

import (
	"strings"
	"testing"
)

func summaryOf(exp string, det bool, metrics map[string]MetricSummary) *Summary {
	return &Summary{Experiment: exp, Deterministic: det, Scale: "smoke", Seeds: []int64{1}, Metrics: metrics}
}

func point(v float64) MetricSummary {
	return MetricSummary{Median: v, Min: v, Max: v, Values: []float64{v}}
}

func TestMetricPolarity(t *testing.T) {
	cases := map[string]Polarity{
		"adaptive/latency/p99_ms":       LowerBetter,
		"static/monthly_usd":            LowerBetter,
		"crash/error_rate":              LowerBetter,
		"rollout/tail_error_rate":       LowerBetter,
		"gru4rec/c100000/reconcile_err": LowerBetter,
		"adaptive/goodput_rps":          HigherBetter,
		"partial/availability":          HigherBetter,
		"partial/post_availability":     HigherBetter,
		"recall/down1/mean_recall":      HigherBetter,
		"sweep/c100000/s8/speedup":      HigherBetter,
		"partial/coverage_mean":         HigherBetter,
		"adaptive/sent":                 Neutral,
		"adaptive/latency/count":        Neutral,
	}
	for key, want := range cases {
		if got := MetricPolarity(key); got != want {
			t.Errorf("MetricPolarity(%q) = %v, want %v", key, got, want)
		}
	}
}

func TestGatePassesWithinBand(t *testing.T) {
	base := summaryOf("overload", true, map[string]MetricSummary{
		"adaptive/latency/p99_ms": {Median: 20, IQR: 1, Values: []float64{19, 20, 21}},
	})
	cur := summaryOf("overload", true, map[string]MetricSummary{
		"adaptive/latency/p99_ms": point(21.5), // within 3×IQR
	})
	if f := Gate(base, cur, DefaultGateConfig()); len(f) != 0 {
		t.Fatalf("in-band drift flagged: %v", f)
	}
}

func TestGateFailsOnRegressionAndPassesOnImprovementPolarity(t *testing.T) {
	base := summaryOf("overload", true, map[string]MetricSummary{
		"adaptive/latency/p99_ms": point(20),
		"adaptive/goodput_rps":    point(1000),
	})
	cur := summaryOf("overload", true, map[string]MetricSummary{
		"adaptive/latency/p99_ms": point(40),   // worse (lower-better rose)
		"adaptive/goodput_rps":    point(1500), // better (higher-better rose)
	})
	findings := Gate(base, cur, DefaultGateConfig())
	if len(findings) != 2 {
		t.Fatalf("findings = %v, want 2", findings)
	}
	regs := Regressions(findings)
	if len(regs) != 1 || regs[0].Key != "adaptive/latency/p99_ms" {
		t.Fatalf("regressions = %v", regs)
	}
	// The improvement is reported (baseline refresh hint) but not failing.
	if findings[1].Regression || findings[1].Key != "adaptive/goodput_rps" {
		t.Fatalf("improvement misreported: %+v", findings[1])
	}
}

func TestGateAttributesStage(t *testing.T) {
	base := summaryOf("overload", true, map[string]MetricSummary{
		"adaptive/latency/p99_ms":               point(20),
		"adaptive/stage=encoder-forward/p99_ms": point(5),
		"adaptive/stage=mips-topk/p99_ms":       point(12),
		"static/stage=mips-topk/p99_ms":         point(12), // other cell: must not leak
	})
	cur := summaryOf("overload", true, map[string]MetricSummary{
		"adaptive/latency/p99_ms":               point(45),
		"adaptive/stage=encoder-forward/p99_ms": point(5.1),
		"adaptive/stage=mips-topk/p99_ms":       point(36),
		"static/stage=mips-topk/p99_ms":         point(12),
	})
	findings := Gate(base, cur, DefaultGateConfig())
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want only the end-to-end p99 (stage keys are not gated)", findings)
	}
	f := findings[0]
	if !f.Regression || f.Stage != "mips-topk" {
		t.Fatalf("attribution wrong: %+v", f)
	}
	if !strings.Contains(f.String(), `stage "mips-topk"`) {
		t.Fatalf("failure message does not name the stage: %s", f.String())
	}
}

func TestGateNonDeterministicSkipsTimings(t *testing.T) {
	base := summaryOf("breakdown", false, map[string]MetricSummary{
		"gru4rec/c100000/total/p99_ms":  point(10), // wall-clock: machine-dependent
		"gru4rec/c100000/reconcile_err": point(0.02),
	})
	cur := summaryOf("breakdown", false, map[string]MetricSummary{
		"gru4rec/c100000/total/p99_ms":  point(50), // 5× — a faster/slower host, not a bug
		"gru4rec/c100000/reconcile_err": point(0.5),
	})
	findings := Gate(base, cur, DefaultGateConfig())
	if len(findings) != 1 || findings[0].Key != "gru4rec/c100000/reconcile_err" {
		t.Fatalf("findings = %v, want only the dimensionless reconcile_err", findings)
	}
}

func TestGateReconcileErrHasWideAbsoluteFloor(t *testing.T) {
	base := summaryOf("breakdown", false, map[string]MetricSummary{
		"gru4rec/c100000/reconcile_err": point(0.004),
	})
	// Scheduler jitter on a busy host: absolute, not proportional.
	cur := summaryOf("breakdown", false, map[string]MetricSummary{
		"gru4rec/c100000/reconcile_err": point(0.03),
	})
	if f := Gate(base, cur, DefaultGateConfig()); len(f) != 0 {
		t.Fatalf("wall-clock jitter flagged: %v", f)
	}
	// A real reconciliation break still fails.
	cur.Metrics["gru4rec/c100000/reconcile_err"] = point(0.3)
	findings := Gate(base, cur, DefaultGateConfig())
	if len(findings) != 1 || !findings[0].Regression {
		t.Fatalf("reconciliation break missed: %v", findings)
	}
}

func TestGateIgnoresAddedAndRemovedMetrics(t *testing.T) {
	base := summaryOf("shard", true, map[string]MetricSummary{
		"sweep/c100000/s8/speedup": point(4),
		"retired/metric/p99_ms":    point(1),
	})
	cur := summaryOf("shard", true, map[string]MetricSummary{
		"sweep/c100000/s8/speedup": point(4),
		"brand/new/p99_ms":         point(100),
	})
	if f := Gate(base, cur, DefaultGateConfig()); len(f) != 0 {
		t.Fatalf("schema churn flagged as drift: %v", f)
	}
}

func TestGateZeroBaselineUsesAbsFloor(t *testing.T) {
	base := summaryOf("blackout", true, map[string]MetricSummary{
		"partial/floor_failures": point(0),
	})
	cur := summaryOf("blackout", true, map[string]MetricSummary{
		"partial/floor_failures": point(2),
	})
	findings := Gate(base, cur, DefaultGateConfig())
	if len(findings) != 1 || !findings[0].Regression {
		t.Fatalf("zero-baseline regression missed: %v", findings)
	}
	// But sub-floor noise near zero passes.
	cur.Metrics["partial/floor_failures"] = point(0.004)
	if f := Gate(base, cur, DefaultGateConfig()); len(f) != 0 {
		t.Fatalf("sub-floor noise flagged: %v", f)
	}
}
