package shard

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"etude/internal/metrics"
	"etude/internal/topk"
)

// PolicyMode selects what a scatter-gather frontend does when a shard
// cannot answer.
type PolicyMode int

const (
	// PolicyFailFast is the exactness-over-availability mode: a shard whose
	// every attempt fails fails the whole request, and the first failure
	// cancels the surviving sub-requests (their work is moot). The merged
	// top-k, when it exists, is bit-identical to an unsharded scan.
	PolicyFailFast PolicyMode = iota
	// PolicyPartial is the availability-over-exactness mode: failed shards
	// are dropped from the merge, the surviving partial top-k lists are
	// combined, and the response is flagged degraded (X-Degraded: partial,
	// X-Coverage) so clients know the quality contract was relaxed. The
	// request only fails when coverage falls below the MinCoverage floor.
	PolicyPartial
)

// String names the mode for reports and flags.
func (m PolicyMode) String() string {
	if m == PolicyPartial {
		return "partial"
	}
	return "fail-fast"
}

// Policy is the partial-result serving policy of a sharded retrieval tier.
// The zero value is strict fail-fast — the pre-policy gateway behaviour —
// so existing deployments are unchanged.
type Policy struct {
	// Mode selects fail-fast or partial-result serving.
	Mode PolicyMode
	// MinCoverage is the minimum fraction of shard groups that must answer
	// under PolicyPartial: a request is served as long as ⌈MinCoverage·S⌉
	// shards contribute, and fails below that floor (default 0.5). Ignored
	// under PolicyFailFast, where the floor is always S.
	MinCoverage float64
	// StragglerFraction bounds each shard sub-request, under PolicyPartial,
	// to this fraction of the request's remaining X-Deadline budget
	// (default 0.75): a straggling shard is abandoned while there is still
	// budget left to merge the survivors and serialise the answer, instead
	// of dragging the whole request past its deadline and returning
	// nothing. Without a caller deadline only GatewayConfig.Timeout
	// applies.
	StragglerFraction float64
	// BreakerThreshold is the number of consecutive scatter failures after
	// which a shard group's breaker opens and the group is skipped outright
	// — a blacked-out shard then costs nothing per request instead of a
	// full sub-request timeout (default 3; negative disables the group
	// breaker).
	BreakerThreshold int
	// BreakerCooldown is how long an open group breaker skips its shard
	// before letting a probe request through again (default 500ms).
	BreakerCooldown time.Duration
}

func (p Policy) withDefaults() Policy {
	if p.MinCoverage <= 0 {
		p.MinCoverage = 0.5
	}
	if p.MinCoverage > 1 {
		p.MinCoverage = 1
	}
	if p.StragglerFraction <= 0 || p.StragglerFraction > 1 {
		p.StragglerFraction = 0.75
	}
	if p.BreakerThreshold == 0 {
		p.BreakerThreshold = 3
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = 500 * time.Millisecond
	}
	return p
}

// MinShards returns the coverage floor in shards for a fleet of s groups:
// ⌈MinCoverage·s⌉ clamped to [1, s] under PolicyPartial, s under
// PolicyFailFast (every shard must answer).
func (p Policy) MinShards(s int) int {
	if p.Mode != PolicyPartial {
		return s
	}
	q := p.withDefaults().MinCoverage
	min := int(math.Ceil(q * float64(s)))
	if min < 1 {
		min = 1
	}
	if min > s {
		min = s
	}
	return min
}

// CoverageError reports a scatter whose surviving shards fell below the
// policy's coverage floor — the partial-result analogue of a failed
// request.
type CoverageError struct {
	// Answered is how many shard groups contributed a partial top-k.
	Answered int
	// Shards is the fleet's shard-group count S.
	Shards int
	// Min is the floor ⌈MinCoverage·S⌉ the scatter had to reach.
	Min int
}

// Error implements error.
func (e *CoverageError) Error() string {
	return fmt.Sprintf("shard: insufficient coverage: %d/%d shards answered, floor is %d", e.Answered, e.Shards, e.Min)
}

// PartialResult is one scatter's merged answer plus its coverage metadata —
// what a partial-serving frontend needs to stamp X-Degraded/X-Coverage.
type PartialResult struct {
	// Recs is the merged top-k over the answering shards. Under full
	// coverage it is bit-identical to the unsharded top-k; under partial
	// coverage it is the exact top-k of the surviving catalog slices.
	Recs []topk.Result
	// Answered is how many shard groups contributed.
	Answered int
	// Shards is the fleet's shard-group count S.
	Shards int
}

// Coverage returns the fraction of the catalog that contributed (answered
// shards over S; partitions are near-equal slices, so shard fraction is
// catalog fraction to within one item).
func (r *PartialResult) Coverage() float64 {
	if r.Shards == 0 {
		return 0
	}
	return float64(r.Answered) / float64(r.Shards)
}

// Partial reports whether any shard is missing from the merge.
func (r *PartialResult) Partial() bool { return r.Answered < r.Shards }

// RecallAtK measures the quality loss of a partial answer: the fraction of
// the full-coverage oracle's items that the partial list retained. An empty
// oracle scores 1 (nothing to miss).
func RecallAtK(oracle, got []topk.Result) float64 {
	if len(oracle) == 0 {
		return 1
	}
	have := make(map[int64]bool, len(got))
	for _, r := range got {
		have[r.Item] = true
	}
	hit := 0
	for _, r := range oracle {
		if have[r.Item] {
			hit++
		}
	}
	return float64(hit) / float64(len(oracle))
}

// PartialStats counts partial-serving outcomes. All methods are safe for
// concurrent use.
type PartialStats struct {
	partial      atomic.Int64
	skipped      atomic.Int64
	floorFailed  atomic.Int64
	lastCoverage atomic.Uint64 // float64 bits of the most recent coverage
}

// RecordPartial notes one degraded response merged at the given coverage.
func (s *PartialStats) RecordPartial(coverage float64) {
	s.partial.Add(1)
	s.lastCoverage.Store(math.Float64bits(coverage))
}

// RecordFull notes one full-coverage response (updates the coverage gauge).
func (s *PartialStats) RecordFull() { s.lastCoverage.Store(math.Float64bits(1)) }

// RecordSkipped notes one shard sub-request skipped by an open group
// breaker.
func (s *PartialStats) RecordSkipped() { s.skipped.Add(1) }

// RecordFloorFailure notes one request failed because coverage fell below
// the policy floor.
func (s *PartialStats) RecordFloorFailure() { s.floorFailed.Add(1) }

// Partial returns how many degraded (partial-coverage) responses were
// served.
func (s *PartialStats) Partial() int64 { return s.partial.Load() }

// Skipped returns how many shard sub-requests an open group breaker
// short-circuited.
func (s *PartialStats) Skipped() int64 { return s.skipped.Load() }

// FloorFailures returns how many requests failed the coverage floor.
func (s *PartialStats) FloorFailures() int64 { return s.floorFailed.Load() }

// LastCoverage returns the coverage fraction of the most recent response
// (0 before any response).
func (s *PartialStats) LastCoverage() float64 {
	return math.Float64frombits(s.lastCoverage.Load())
}

// WriteMetrics appends the partial-serving counters to a Prometheus
// exposition.
func (s *PartialStats) WriteMetrics(pb *metrics.PromBuilder) {
	pb.Counter("etude_partial_responses_total",
		"Responses merged from a strict subset of shard groups (X-Degraded: partial).", float64(s.Partial()))
	pb.Counter("etude_shard_skipped_total",
		"Shard sub-requests skipped outright by an open shard-group breaker.", float64(s.Skipped()))
	pb.Counter("etude_coverage_floor_failures_total",
		"Requests failed because surviving shard coverage fell below the policy floor.", float64(s.FloorFailures()))
	pb.Gauge("etude_coverage_last",
		"Coverage fraction of the most recent scatter response (1 = full catalog).", s.LastCoverage())
}

// StaticPicker is a Picker over a fixed replica URL set with plain
// round-robin rotation and no health state — the wiring for a standalone
// gateway front (cmd/etude-server -gateway) whose brownout behaviour comes
// from the gateway's own shard-group breakers rather than per-pod ejection.
type StaticPicker struct {
	urls []string
	rr   atomic.Uint64
}

// NewStaticPicker builds a picker over the given replica base URLs.
func NewStaticPicker(urls ...string) *StaticPicker {
	return &StaticPicker{urls: append([]string(nil), urls...)}
}

// PickURL returns the next replica URL in rotation ("" for an empty set).
func (p *StaticPicker) PickURL() string {
	if len(p.urls) == 0 {
		return ""
	}
	return p.urls[int((p.rr.Add(1)-1)%uint64(len(p.urls)))]
}

// Report implements Picker; a static picker keeps no health state.
func (p *StaticPicker) Report(string, bool) {}
