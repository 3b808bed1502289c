package sim

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"etude/internal/device"
	"etude/internal/model"
	"etude/internal/sched"
	"etude/internal/trace"
)

func newSchedT4(t *testing.T, eng *Engine, scfg sched.Config) *Instance {
	t.Helper()
	in, err := NewSchedInstance(eng, device.GPUT4(), "gru4rec", model.Config{CatalogSize: 1_000_000, Seed: 1}, true, scfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func schedStatsFor(in *Instance, tenant string) sched.TenantStats {
	for _, s := range in.Stats() {
		if s.Tenant == tenant {
			return s
		}
	}
	return sched.TenantStats{}
}

func TestSchedInstanceServesAll(t *testing.T) {
	eng := NewEngine()
	in := newSchedT4(t, eng, sched.Config{
		Tenants:    []sched.TenantConfig{{Name: "a", Weight: 3}, {Name: "b", Weight: 1}},
		MaxBatch:   64,
		FlushEvery: 2 * time.Millisecond,
	})
	const n = 200
	served := 0
	var latencies []time.Duration
	for i := 0; i < n; i++ {
		tenant := "a"
		if i%2 == 1 {
			tenant = "b"
		}
		delay := time.Duration(i) * 100 * time.Microsecond
		tn := tenant
		eng.Schedule(delay, func() {
			in.SubmitTenant(tn, 10, 0, func(o Outcome) {
				if o.Err != nil {
					t.Errorf("unexpected error: %v", o.Err)
					return
				}
				served++
				latencies = append(latencies, o.Latency)
			})
		})
	}
	eng.Drain()
	if served != n {
		t.Fatalf("served %d of %d", served, n)
	}
	if in.Flushes() == 0 {
		t.Fatal("no batches assembled")
	}
	for _, l := range latencies {
		if l <= 0 {
			t.Fatalf("non-positive latency %v", l)
		}
	}
	if in.Pending() != 0 {
		t.Fatalf("pending = %d after drain", in.Pending())
	}
}

// Two identical runs must produce bit-identical outcomes: the scheduler
// mirror lives inside the deterministic event loop.
func TestSchedInstanceDeterministic(t *testing.T) {
	run := func() string {
		eng := NewEngine()
		in := newSchedT4(t, eng, sched.Config{
			Tenants:    []sched.TenantConfig{{Name: "a", Weight: 3}, {Name: "b", Weight: 1}},
			MaxBatch:   32,
			FlushEvery: 2 * time.Millisecond,
			MaxQueue:   16,
		})
		out := ""
		for i := 0; i < 300; i++ {
			tenant := "a"
			if i%3 == 0 {
				tenant = "b"
			}
			delay := time.Duration(i) * 37 * time.Microsecond
			tn, idx := tenant, i
			eng.Schedule(delay, func() {
				in.SubmitTenant(tn, 5+idx%20, 30*time.Millisecond, func(o Outcome) {
					out += fmt.Sprintf("%d:%v:%v;", idx, o.Latency, o.Err)
				})
			})
		}
		eng.Drain()
		return out
	}
	if a, b := run(), run(); a != b {
		t.Fatal("identical runs diverged")
	}
}

// Under sustained saturation, WDRR throughput shares converge to the
// configured weights (3:1 within ±10%) — the isolation contract.
func TestSchedInstanceWDRRShares(t *testing.T) {
	eng := NewEngine()
	in := newSchedT4(t, eng, sched.Config{
		Tenants:    []sched.TenantConfig{{Name: "a", Weight: 3}, {Name: "b", Weight: 1}},
		MaxBatch:   32,
		FlushEvery: 2 * time.Millisecond,
		MaxQueue:   256,
	})
	// Both tenants offer far more than the device can serve; bounded queues
	// shed the excess so the served ratio is the scheduler's doing.
	const horizon = 200 * time.Millisecond
	for _, tenant := range []string{"a", "b"} {
		tn := tenant
		for at := time.Duration(0); at < horizon; at += 20 * time.Microsecond {
			eng.Schedule(at, func() {
				in.SubmitTenant(tn, 10, 0, func(Outcome) {})
			})
		}
	}
	eng.Run(horizon)
	a, b := schedStatsFor(in, "a"), schedStatsFor(in, "b")
	total := a.Served + b.Served
	if total == 0 {
		t.Fatal("nothing served")
	}
	share := float64(a.Served) / float64(total)
	if share < 0.65 || share > 0.85 {
		t.Fatalf("tenant a share = %.3f (served a=%d b=%d), want 0.75±0.10", share, a.Served, b.Served)
	}
}

// A tenant's flash crowd must not break another tenant's latency: under
// WDRR the victim's p99 stays near its quiet baseline, while a shared
// single queue lets the crowd push it far past.
func TestSchedInstanceFlashCrowdIsolation(t *testing.T) {
	// victimRun drives tenant b's steady 1 req/ms workload for 300ms and
	// returns its sorted served latencies. crowd adds tenant a's 20 req/ms
	// burst during [50ms, 150ms); shared collapses both tenants into one
	// queue (the no-scheduler baseline).
	victimRun := func(crowd, shared bool) []time.Duration {
		eng := NewEngine()
		scfg := sched.Config{
			Tenants:    []sched.TenantConfig{{Name: "a", Weight: 1}, {Name: "b", Weight: 1}},
			MaxBatch:   32,
			FlushEvery: 2 * time.Millisecond,
			MaxQueue:   512,
		}
		if shared {
			scfg.Tenants = nil // everything lands in one lazily-created queue
		}
		// A 100k catalog keeps the batch-32 service time ~1ms, so victim
		// latency reflects scheduling, not raw device occupancy.
		in, err := NewSchedInstance(eng, device.GPUT4(), "gru4rec", model.Config{CatalogSize: 100_000, Seed: 1}, true, scfg)
		if err != nil {
			t.Fatal(err)
		}
		tenantOf := func(want string) string {
			if shared {
				return "shared"
			}
			return want
		}
		var victim []time.Duration
		const horizon = 300 * time.Millisecond
		for at := time.Duration(0); at < horizon; at += time.Millisecond {
			eng.Schedule(at, func() {
				in.SubmitTenant(tenantOf("b"), 10, 0, func(o Outcome) {
					if o.Err == nil {
						victim = append(victim, o.Latency)
					}
				})
			})
		}
		if crowd {
			// 100 req/ms — ~3× the device's batched capacity, so the crowd
			// genuinely saturates rather than just raising utilisation.
			for at := 50 * time.Millisecond; at < 150*time.Millisecond; at += 10 * time.Microsecond {
				eng.Schedule(at, func() {
					in.SubmitTenant(tenantOf("a"), 10, 0, func(Outcome) {})
				})
			}
		}
		eng.Drain()
		sort.Slice(victim, func(i, j int) bool { return victim[i] < victim[j] })
		return victim
	}
	p99 := func(ls []time.Duration) time.Duration {
		if len(ls) == 0 {
			return 0
		}
		return ls[len(ls)*99/100]
	}
	quiet := p99(victimRun(false, false))
	isolated := p99(victimRun(true, false))
	exposed := p99(victimRun(true, true))
	if quiet == 0 || isolated == 0 || exposed == 0 {
		t.Fatalf("missing victim latencies: quiet=%v isolated=%v exposed=%v", quiet, isolated, exposed)
	}
	// The WDRR arm holds the victim near its quiet baseline...
	if isolated > 2*quiet {
		t.Fatalf("WDRR victim p99 %v vs quiet %v — isolation failed", isolated, quiet)
	}
	// ...while the shared queue lets the crowd inflate it well past.
	if exposed < 2*isolated {
		t.Fatalf("shared-queue victim p99 %v vs isolated %v — baseline should break", exposed, isolated)
	}
}

// Entries whose deadline budget expires while queued are dropped at
// assembly with ErrDeadlineExpired and never consume device time.
func TestSchedInstanceExpiresDeadEntries(t *testing.T) {
	eng := NewEngine()
	in := newSchedT4(t, eng, sched.Config{
		MaxBatch:   4,
		FlushEvery: 2 * time.Millisecond,
	})
	// Saturate the device so the late submission has to queue past its
	// tiny budget.
	for i := 0; i < 64; i++ {
		in.SubmitTenant("t", 10, 0, func(Outcome) {})
	}
	var gotErr error
	fired := false
	eng.Schedule(time.Millisecond, func() {
		in.SubmitTenant("t", 10, 100*time.Microsecond, func(o Outcome) {
			fired = true
			gotErr = o.Err
		})
	})
	eng.Drain()
	if !fired {
		t.Fatal("tight-budget request never completed")
	}
	if !errors.Is(gotErr, ErrDeadlineExpired) {
		t.Fatalf("tight-budget outcome = %v, want ErrDeadlineExpired", gotErr)
	}
	if st := schedStatsFor(in, "t"); st.Expired != 1 {
		t.Fatalf("expired counter = %d, want 1", st.Expired)
	}
}

// A full tenant queue sheds immediately with ErrShed.
func TestSchedInstanceShedsAtQueueBound(t *testing.T) {
	eng := NewEngine()
	in := newSchedT4(t, eng, sched.Config{
		MaxBatch:   64,
		FlushEvery: time.Hour, // never flush during the test
		MaxQueue:   8,
	})
	sheds := 0
	for i := 0; i < 12; i++ {
		in.SubmitTenant("t", 10, 0, func(o Outcome) {
			if errors.Is(o.Err, ErrShed) {
				sheds++
			}
		})
	}
	if sheds != 4 {
		t.Fatalf("sheds = %d, want 4", sheds)
	}
	if st := schedStatsFor(in, "t"); st.Shed != 4 || st.Pending != 8 {
		t.Fatalf("stats = %+v, want Shed 4 Pending 8", st)
	}
}

// Spans record the sched-wait stage so trace aggregation can attribute
// tail movement to scheduling.
func TestSchedInstanceRecordsSchedWait(t *testing.T) {
	eng := NewEngine()
	in := newSchedT4(t, eng, sched.Config{MaxBatch: 8, FlushEvery: 2 * time.Millisecond})
	tr := trace.New(trace.Options{Clock: eng.Now})
	in.SetTracer(tr)
	// Fewer than the target batch: the flush waits out FlushEvery, so the
	// sched-wait observations are non-zero (zero durations are skipped).
	for i := 0; i < 4; i++ {
		in.SubmitTenant("t", 10, 0, func(Outcome) {})
	}
	eng.Drain()
	snap := tr.StageSnapshot(trace.StageSchedWait)
	if snap.Count == 0 {
		t.Fatal("no sched-wait stage observations")
	}
}
