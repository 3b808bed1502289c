package sim

import (
	"errors"
	"testing"
	"time"

	"etude/internal/device"
	"etude/internal/sched"
)

// Entries left over from a full batch flush at their own oldest enqueue +
// FlushEvery, as soon as the device is free — not on a periodic timer that
// keeps re-arming while the device is busy. With FlushEvery shorter than
// the first batch, the leftovers launch the instant it completes.
func TestInstanceLeftoverFlushesAtOldestEnqueue(t *testing.T) {
	cost := mustCost(t, "gru4rec", 1_000_000, 3)
	first := device.GPUT4().BatchInference(cost, 4, true)
	leftover := device.GPUT4().BatchInference(cost, 2, true)
	for _, flushEvery := range []time.Duration{first * 2 / 5, first * 2} {
		eng := NewEngine()
		in := t4Instance(t, eng, flushEvery, 4)
		var lats []time.Duration
		for i := 0; i < 6; i++ {
			in.Submit(3, func(l time.Duration) { lats = append(lats, l) })
		}
		eng.Drain()
		if len(lats) != 6 {
			t.Fatalf("flushEvery %v: completed %d/6", flushEvery, len(lats))
		}
		flushAt := max(flushEvery, first) // enqueued at 0; device busy until first
		for i, l := range lats {
			want := first
			if i >= 4 {
				want = flushAt + leftover
			}
			if l != want {
				t.Fatalf("flushEvery %v: request %d latency %v, want %v (leftovers flush at %v)", flushEvery, i, l, want, flushAt)
			}
		}
	}
}

// Pending counts every admitted request not yet answered, in-flight batch
// members included — the live server's count.
func TestInstancePendingCountsInflightBatch(t *testing.T) {
	eng := NewEngine()
	in := t4Instance(t, eng, 2*time.Millisecond, 8)
	for i := 0; i < 8; i++ {
		in.Submit(3, func(time.Duration) {})
	}
	if in.Flushes() != 1 {
		t.Fatalf("full buffer did not launch: %d flushes", in.Flushes())
	}
	in.Submit(3, func(time.Duration) {})
	if p := in.Pending(); p < 9 {
		t.Fatalf("pending = %d with 8 in flight and 1 queued, want ≥ 9", p)
	}
	eng.Drain()
	if p := in.Pending(); p != 0 {
		t.Fatalf("pending after drain = %d", p)
	}
}

// crashRecorder collects outcomes by request index and counts callbacks.
type crashRecorder struct {
	order []int
	calls map[int]int
	errs  map[int]error
}

func newCrashRecorder() *crashRecorder {
	return &crashRecorder{calls: map[int]int{}, errs: map[int]error{}}
}

func (r *crashRecorder) done(i int) func(Outcome) {
	return func(o Outcome) {
		r.order = append(r.order, i)
		r.calls[i]++
		r.errs[i] = o.Err
	}
}

// check asserts every request in ids failed once with ErrPodDown, in the
// given order, and nothing else was answered.
func (r *crashRecorder) check(t *testing.T, ids ...int) {
	t.Helper()
	if len(r.order) != len(ids) {
		t.Fatalf("answered %v, want %v", r.order, ids)
	}
	for k, i := range ids {
		if r.order[k] != i || r.calls[i] != 1 || !errors.Is(r.errs[i], ErrPodDown) {
			t.Fatalf("answered %v (calls %v, errs %v), want %v each once with ErrPodDown", r.order, r.calls, r.errs, ids)
		}
	}
}

// A GPU crash fails the in-flight batch and the buffered requests behind
// it exactly once, in arrival order; the crashed batch's completion fires
// into nothing. A crash of an idle instance also cancels its pending
// flush: after Restart, a new request is served on its own flush interval.
func TestInstanceCrashFailsBufferedAndInflight(t *testing.T) {
	eng := NewEngine()
	const flushEvery = 2 * time.Millisecond
	in := t4Instance(t, eng, flushEvery, 4)
	rec := newCrashRecorder()
	// Requests 0-3 fill a batch that launches at 30µs; 4 and 5 buffer
	// behind it.
	for i := 0; i < 6; i++ {
		at := time.Duration(i) * 10 * time.Microsecond
		done := rec.done(i)
		eng.Schedule(at, func() { in.SubmitOutcome(3, done) })
	}
	eng.Run(60 * time.Microsecond)
	if in.Flushes() != 1 || in.Pending() != 6 {
		t.Fatalf("before crash: %d flushes, %d pending; want 1 batch in flight and 2 buffered", in.Flushes(), in.Pending())
	}
	in.Crash()
	rec.check(t, 0, 1, 2, 3, 4, 5)
	if in.Pending() != 0 || in.Up() {
		t.Fatalf("after crash: pending %d, up %v", in.Pending(), in.Up())
	}
	in.SubmitOutcome(3, rec.done(6))
	rec.check(t, 0, 1, 2, 3, 4, 5, 6)

	// Restarted and idle, request 7 buffers with a flush armed at
	// 100µs + flushEvery; the second crash fails it and cancels that flush.
	eng.Run(100 * time.Microsecond)
	in.Restart()
	in.SubmitOutcome(3, rec.done(7))
	eng.Run(200 * time.Microsecond)
	in.Crash()
	rec.check(t, 0, 1, 2, 3, 4, 5, 6, 7)

	eng.Run(300 * time.Microsecond)
	in.Restart()
	var served Outcome
	fired := 0
	in.SubmitOutcome(3, func(o Outcome) { served, fired = o, fired+1 })
	eng.Drain()
	rec.check(t, 0, 1, 2, 3, 4, 5, 6, 7)
	want := flushEvery + device.GPUT4().BatchInference(mustCost(t, "gru4rec", 1_000_000, 3), 1, true)
	if fired != 1 || served.Err != nil || served.Latency != want {
		t.Fatalf("after restart: %d outcomes, last %+v; want one served in %v", fired, served, want)
	}
	if in.Flushes() != 2 {
		t.Fatalf("flushes = %d, want 2: the crashed batch and the restarted request's", in.Flushes())
	}
}

// A CPU crash fails the request in service and the queue behind it once
// each, in arrival order.
func TestInstanceCrashFailsCPUQueueInOrder(t *testing.T) {
	eng := NewEngine()
	in := cpuInstance(t, eng, 100_000)
	rec := newCrashRecorder()
	for i := 0; i < 4; i++ {
		in.SubmitOutcome(3, rec.done(i))
	}
	in.Crash()
	rec.check(t, 0, 1, 2, 3)
	eng.Drain()
	rec.check(t, 0, 1, 2, 3)
}

// Behind the multi-tenant scheduler a batch is assembled in WDRR order,
// not arrival order; a crash still fails everything in arrival order.
func TestSchedInstanceCrashFailsInArrivalOrder(t *testing.T) {
	eng := NewEngine()
	in := newSchedT4(t, eng, sched.Config{
		Tenants:     []sched.TenantConfig{{Name: "a"}, {Name: "b"}},
		MaxBatch:    2,
		TargetBatch: 2,
		FlushEvery:  2 * time.Millisecond,
	})
	rec := newCrashRecorder()
	// b0 then a1 fill a batch that WDRR assembles as [a1, b0]; b2 and a3
	// queue behind it.
	for i, tenant := range []string{"b", "a", "b", "a"} {
		at := time.Duration(i) * time.Microsecond
		tn, done := tenant, rec.done(i)
		eng.Schedule(at, func() { in.SubmitTenant(tn, 10, 0, done) })
	}
	eng.Run(4 * time.Microsecond)
	if in.Flushes() != 1 || in.Pending() != 4 {
		t.Fatalf("before crash: %d flushes, %d pending", in.Flushes(), in.Pending())
	}
	in.Crash()
	rec.check(t, 0, 1, 2, 3)
	eng.Drain()
	rec.check(t, 0, 1, 2, 3)
}
