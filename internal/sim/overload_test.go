package sim

import (
	"errors"
	"testing"
	"time"

	"etude/internal/device"
	"etude/internal/model"
	"etude/internal/overload"
	"etude/internal/trace"
)

// A request whose deadline budget is consumed while queued must be dropped
// at dequeue — before the executor — so the encoder never runs for it.
func TestInstanceDeadlineExpiredDroppedAtDequeue(t *testing.T) {
	eng := NewEngine()
	in := cpuInstance(t, eng, 100_000)
	tr := trace.New(trace.Options{Clock: eng.Now})
	in.SetTracer(tr)
	service := device.CPU().ParallelInference(mustCost(t, "gru4rec", 100_000, 3), true)
	in.SetResilience(Resilience{Budget: service / 2})
	var outcomes []Outcome
	for i := 0; i < 3; i++ {
		in.SubmitOutcome(3, func(o Outcome) { outcomes = append(outcomes, o) })
	}
	eng.Drain()
	if len(outcomes) != 3 {
		t.Fatalf("completed %d/3", len(outcomes))
	}
	// The first request starts service at sojourn zero; the two behind it
	// wait a full service time, past the half-service budget.
	if outcomes[0].Err != nil {
		t.Fatalf("head request failed: %v", outcomes[0].Err)
	}
	for i, o := range outcomes[1:] {
		if !errors.Is(o.Err, ErrDeadlineExpired) {
			t.Fatalf("queued request %d: err = %v, want ErrDeadlineExpired", i+1, o.Err)
		}
	}
	if got := in.DeadlineExpired(); got != 2 {
		t.Fatalf("DeadlineExpired() = %d, want 2", got)
	}
	// Acceptance criterion in miniature: expired work never reached the
	// encoder stage.
	if enc := tr.StageSnapshot(trace.StageEncoderForward); enc.Count != 1 {
		t.Fatalf("encoder spans = %d, want 1 (only the served request)", enc.Count)
	}
}

func t4Instance(t *testing.T, eng *Engine, flushEvery time.Duration, maxBatch int) *Instance {
	t.Helper()
	in, err := NewInstance(eng, device.GPUT4(), "gru4rec", model.Config{CatalogSize: 1_000_000, Seed: 1}, true, flushEvery, maxBatch)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// A budget tighter than the flush window pulls the GPU flush forward to
// deadline − slack (the live batcher's sched.Assembly policy, default
// slack FlushEvery/4), so the batch launches in time and every request is
// served.
func TestInstanceBatchFlushesBeforeDeadline(t *testing.T) {
	eng := NewEngine()
	in := t4Instance(t, eng, 2*time.Millisecond, 1024)
	in.SetResilience(Resilience{Budget: time.Millisecond}) // < 2ms flush window
	var outcomes []Outcome
	for i := 0; i < 8; i++ {
		in.SubmitOutcome(3, func(o Outcome) { outcomes = append(outcomes, o) })
	}
	eng.Drain()
	if len(outcomes) != 8 {
		t.Fatalf("completed %d/8", len(outcomes))
	}
	flushAt := time.Millisecond - 2*time.Millisecond/4
	want := flushAt + device.GPUT4().BatchInference(mustCost(t, "gru4rec", 1_000_000, 3), 8, true)
	for i, o := range outcomes {
		if o.Err != nil || o.Latency != want {
			t.Fatalf("request %d: %+v, want served in %v (flush at %v + batch service)", i, o, want, flushAt)
		}
	}
	if got := in.DeadlineExpired(); got != 0 {
		t.Fatalf("DeadlineExpired() = %d, want 0", got)
	}
}

// A stale batch never launches: a wave that arrives while the device is
// busy, and whose budget runs out before the device frees, is answered
// ErrDeadlineExpired at the next assembly without a flush or an encoder
// pass.
func TestInstanceBatchFiltersExpired(t *testing.T) {
	eng := NewEngine()
	in := t4Instance(t, eng, 2*time.Millisecond, 1024)
	tr := trace.New(trace.Options{Clock: eng.Now})
	in.SetTracer(tr)
	const budget = time.Millisecond
	in.SetResilience(Resilience{Budget: budget})
	service := device.GPUT4().BatchInference(mustCost(t, "gru4rec", 1_000_000, 3), 8, true)
	firstFlush := budget - 2*time.Millisecond/4
	secondArrival := firstFlush + 100*time.Microsecond
	if firstFlush+service <= secondArrival+budget {
		t.Fatalf("batch service %v too short for the second wave to expire in the queue", service)
	}
	var first, second []Outcome
	for i := 0; i < 8; i++ {
		in.SubmitOutcome(3, func(o Outcome) { first = append(first, o) })
	}
	eng.Schedule(secondArrival, func() {
		for i := 0; i < 8; i++ {
			in.SubmitOutcome(3, func(o Outcome) { second = append(second, o) })
		}
	})
	eng.Drain()
	if len(first) != 8 || len(second) != 8 {
		t.Fatalf("completed %d/8 and %d/8", len(first), len(second))
	}
	for i, o := range first {
		if o.Err != nil {
			t.Fatalf("first wave request %d: %v", i, o.Err)
		}
	}
	for i, o := range second {
		if !errors.Is(o.Err, ErrDeadlineExpired) {
			t.Fatalf("second wave request %d: err = %v, want ErrDeadlineExpired", i, o.Err)
		}
	}
	if got := in.DeadlineExpired(); got != 8 {
		t.Fatalf("DeadlineExpired() = %d, want 8", got)
	}
	if enc := tr.StageSnapshot(trace.StageEncoderForward); enc.Count != 8 {
		t.Fatalf("encoder spans = %d, want 8: the stale wave must not launch", enc.Count)
	}
	if flushes, _, _ := tr.BatchStats(); flushes != 1 || in.Flushes() != 1 {
		t.Fatalf("batch flushes = %d (instance %d), want 1", flushes, in.Flushes())
	}
}

// With a standing queue far above the CoDel target, the discipline sheds
// from the head once the excursion outlives an interval.
func TestInstanceCoDelShedsStandingQueue(t *testing.T) {
	eng := NewEngine()
	in := cpuInstance(t, eng, 100_000)
	cd := overload.NewCoDel(overload.CoDelConfig{Target: time.Microsecond, Interval: time.Microsecond}, eng.Now)
	in.SetResilience(Resilience{CoDel: cd})
	served, shed := 0, 0
	for i := 0; i < 8; i++ {
		in.SubmitOutcome(3, func(o Outcome) {
			switch {
			case o.Err == nil:
				served++
			case errors.Is(o.Err, ErrCoDelDropped):
				shed++
			default:
				t.Errorf("unexpected error: %v", o.Err)
			}
		})
	}
	eng.Drain()
	if served+shed != 8 {
		t.Fatalf("served %d + shed %d != 8", served, shed)
	}
	if shed == 0 {
		t.Fatalf("millisecond-scale sojourns above a 1µs target shed nothing")
	}
	if in.CoDelDropped() != int64(shed) {
		t.Fatalf("CoDelDropped() = %d, want %d", in.CoDelDropped(), shed)
	}
}

// The adaptive limiter refuses admission beyond its limit and releases its
// slot on every outcome, including crash-failed in-flight requests.
func TestInstanceLimiterRefusesAndReleases(t *testing.T) {
	eng := NewEngine()
	in := cpuInstance(t, eng, 100_000)
	lim := overload.NewLimiter(overload.LimiterConfig{Initial: 1, Min: 1})
	in.SetResilience(Resilience{Limiter: lim})
	var outcomes []Outcome
	record := func(o Outcome) { outcomes = append(outcomes, o) }
	in.SubmitOutcome(3, record)
	in.SubmitOutcome(3, record) // over the limit of 1: refused immediately
	if len(outcomes) != 1 || !errors.Is(outcomes[0].Err, ErrLimited) {
		t.Fatalf("second submission not refused: %+v", outcomes)
	}
	if in.Limited() != 1 {
		t.Fatalf("Limited() = %d, want 1", in.Limited())
	}
	eng.Drain()
	if len(outcomes) != 2 || outcomes[1].Err != nil {
		t.Fatalf("admitted request did not complete cleanly: %+v", outcomes)
	}
	if lim.Inflight() != 0 {
		t.Fatalf("Inflight() = %d after completion, want 0", lim.Inflight())
	}

	// Crash path: the admitted slot must be released when Crash fails the
	// in-flight request, or the limiter wedges at zero free slots.
	in.SubmitOutcome(3, record)
	if lim.Inflight() != 1 {
		t.Fatalf("Inflight() = %d after admit, want 1", lim.Inflight())
	}
	in.Crash()
	if len(outcomes) != 3 || !errors.Is(outcomes[2].Err, ErrPodDown) {
		t.Fatalf("crash did not fail the in-flight request: %+v", outcomes)
	}
	if lim.Inflight() != 0 {
		t.Fatalf("Inflight() = %d after crash, want 0", lim.Inflight())
	}
}
