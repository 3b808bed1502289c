package batching

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"etude/internal/sched"
)

// The Assembly policy the loop applies (sched.Assembly) is pure (explicit
// timestamps), so its flush-timing semantics are tested under a virtual
// clock: plain time.Duration offsets, no sleeping, no wall-clock flake.

func TestAssemblyFlushAtBoundedByInterval(t *testing.T) {
	a := sched.Assembly{MaxBatch: 8, FlushEvery: 2 * time.Millisecond}
	if got := a.FlushAt(10*time.Millisecond, 0); got != 12*time.Millisecond {
		t.Fatalf("FlushAt(no deadline) = %v, want oldest+FlushEvery = 12ms", got)
	}
	// A deadline looser than the interval must not delay the flush.
	if got := a.FlushAt(10*time.Millisecond, 50*time.Millisecond); got != 12*time.Millisecond {
		t.Fatalf("FlushAt(loose deadline) = %v, want 12ms", got)
	}
}

func TestAssemblyFlushAtPulledEarlierByTightDeadline(t *testing.T) {
	a := sched.Assembly{MaxBatch: 8, FlushEvery: 2 * time.Millisecond}
	// A member deadline inside the flush window pulls the flush to it:
	// waiting the full interval would guarantee a dead entry.
	if got := a.FlushAt(10*time.Millisecond, 11*time.Millisecond); got != 11*time.Millisecond {
		t.Fatalf("FlushAt(tight deadline) = %v, want the 11ms deadline", got)
	}
	// With slack configured the flush lands ahead of the deadline, leaving
	// headroom to actually serve the entry.
	a.DeadlineSlack = 400 * time.Microsecond
	if got := a.FlushAt(10*time.Millisecond, 11*time.Millisecond); got != 10600*time.Microsecond {
		t.Fatalf("FlushAt(tight deadline, slack) = %v, want 10.6ms", got)
	}
}

func TestAssemblyExpired(t *testing.T) {
	a := sched.Assembly{MaxBatch: 8, FlushEvery: time.Millisecond}
	now := 10 * time.Millisecond
	if a.Expired(0, now) {
		t.Fatal("no-deadline entry reported expired")
	}
	if a.Expired(now+time.Nanosecond, now) {
		t.Fatal("future deadline reported expired")
	}
	if !a.Expired(now, now) || !a.Expired(now-time.Nanosecond, now) {
		t.Fatal("passed deadline not reported expired")
	}
}

// TestAssemblyNeverWaitsPastTightestDeadline is the property test of the
// deadline-aware policy: for arbitrary buffers, the flush instant the
// policy picks is never later than any member deadline and never later
// than the oldest entry's flush-interval bound — i.e. no assembled batch
// ever waits past the tightest remaining deadline.
func TestAssemblyNeverWaitsPastTightestDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		a := sched.Assembly{
			MaxBatch:      64,
			FlushEvery:    2 * time.Millisecond,
			DeadlineSlack: time.Duration(rng.Int63n(int64(time.Millisecond))),
		}
		n := 1 + rng.Intn(16)
		// Entries arrive in enqueue order within one flush window.
		enq := make([]time.Duration, n)
		deadline := make([]time.Duration, n)
		base := time.Duration(rng.Int63n(int64(time.Second)))
		cur := base
		for i := 0; i < n; i++ {
			cur += time.Duration(rng.Int63n(int64(a.FlushEvery) / 4))
			enq[i] = cur
			if rng.Intn(2) == 0 {
				deadline[i] = cur + time.Duration(rng.Int63n(int64(10*time.Millisecond)))
			}
		}
		// Fold the buffer the way sched.Core.NextFlushAt does: a min.
		flushAt := a.FlushAt(enq[0], deadline[0])
		for i := 1; i < n; i++ {
			if bound := a.FlushAt(enq[i], deadline[i]); bound < flushAt {
				flushAt = bound
			}
		}
		for i := 0; i < n; i++ {
			if deadline[i] > 0 && flushAt > deadline[i] {
				t.Fatalf("trial %d: flushAt %v waits past member %d deadline %v", trial, flushAt, i, deadline[i])
			}
		}
		if flushAt > enq[0]+a.FlushEvery {
			t.Fatalf("trial %d: flushAt %v exceeds oldest-entry bound %v", trial, flushAt, enq[0]+a.FlushEvery)
		}
	}
}

// TestBatcherEmptyBufferTimerReset exercises the dispatcher's empty-buffer
// semantics: after a flush empties the buffer, a later request gets a
// fresh FlushEvery window measured from its own enqueue — not a stale
// tick boundary left over from the previous buffer.
func TestBatcherEmptyBufferTimerReset(t *testing.T) {
	var flushes atomic.Int64
	b, err := New(Config{MaxBatch: 100, FlushEvery: 20 * time.Millisecond}, func(batch []int) []int {
		flushes.Add(1)
		return batch
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// First request flushes on its timer; buffer is then empty for a while.
	if _, err := b.Submit(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	// A fresh request must wait ≈FlushEvery from ITS enqueue, not flush
	// instantly off a stale timer — and must not hang forever either.
	start := time.Now()
	if _, err := b.Submit(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 10*time.Millisecond {
		t.Fatalf("second request answered in %v — flushed off a stale timer, not a fresh %v window", elapsed, 20*time.Millisecond)
	}
	if flushes.Load() != 2 {
		t.Fatalf("flushes = %d, want 2", flushes.Load())
	}
}

// TestBatcherCoalescedFlushAtSizeBound: once MaxBatch entries are
// buffered the flush happens immediately (no waiting out the interval),
// and the burst coalesces into full-size batches.
func TestBatcherCoalescedFlushAtSizeBound(t *testing.T) {
	var sizes sync.Map
	var flushes atomic.Int64
	b, err := New(Config{MaxBatch: 8, FlushEvery: time.Hour}, func(batch []int) []int {
		sizes.Store(flushes.Add(1), len(batch))
		return batch
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			if _, err := b.Submit(context.Background(), v); err != nil {
				t.Errorf("Submit: %v", err)
			}
		}(i)
	}
	wg.Wait()
	// FlushEvery is an hour: the only way these returned is the size bound.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("size-bound flushes took %v", elapsed)
	}
	if got := flushes.Load(); got != 4 {
		t.Fatalf("32 requests at MaxBatch 8 used %d flushes, want 4", got)
	}
	sizes.Range(func(_, v any) bool {
		if v.(int) != 8 {
			t.Fatalf("flush of size %d, want full batches of 8", v.(int))
		}
		return true
	})
}

// TestBatcherFlushesEarlyForTightDeadline: a buffered request whose
// deadline is tighter than FlushEvery is served before that deadline —
// the dispatcher pulls the flush to the tightest member deadline instead
// of letting the entry die in the buffer. FlushEvery is an hour, so the
// only way the request returns at all is the deadline-aware early flush;
// the 400ms slack leaves the flush that much headroom before the deadline.
func TestBatcherFlushesEarlyForTightDeadline(t *testing.T) {
	b, err := New(Config{MaxBatch: 100, FlushEvery: time.Hour, DeadlineSlack: 400 * time.Millisecond}, func(batch []int) []int {
		return batch
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	got, err := b.Submit(ctx, 7)
	if err != nil || got != 7 {
		t.Fatalf("Submit = %v, %v — deadline-bound flush did not serve the request", got, err)
	}
	if expiredDrops(b) != 0 {
		t.Fatalf("expired drops = %d on a flush that should beat the deadline", expiredDrops(b))
	}
}

// TestBatcherExpiredDropCounter: entries dead at flush increment the
// expiry counter and answer ErrDeadlineExpired without reaching the
// handler.
func TestBatcherExpiredDropCounter(t *testing.T) {
	var seen atomic.Int64
	release := make(chan struct{})
	parked := make(chan struct{}, 1)
	// An hour of deadline slack makes every deadline-bound flush immediate:
	// the first request flushes alone however late the loop runs, and its
	// minute-long budget cannot expire before it does.
	b, err := New(Config{MaxBatch: 8, FlushEvery: time.Hour, DeadlineSlack: time.Hour}, func(batch []int) []int {
		seen.Add(int64(len(batch)))
		select {
		case parked <- struct{}{}:
			<-release // only the first flush parks the dispatcher
		default:
		}
		return batch
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Park the dispatcher in a slow first flush...
	go func() { _, _ = b.Submit(withBudget(t, time.Minute), 1) }()
	<-parked
	// ...buffer a request whose deadline passes while the flush is stuck
	// (its Submit returns once the caller's deadline fires)...
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _ = b.Submit(ctx, 2)
	// ...then release the dispatcher: the next flush must drop the dead
	// entry without handing it to the handler.
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for expiredDrops(b) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := expiredDrops(b); got != 1 {
		t.Fatalf("ExpiredDrops = %d, want 1", got)
	}
	if got := seen.Load(); got != 1 {
		t.Fatalf("handler saw %d requests, want only the live one", got)
	}
}

// withBudget returns a context with the given timeout whose cancel is tied
// to test cleanup.
func withBudget(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// expiredDrops returns how many buffered requests the batcher dropped at
// flush because their deadline had already passed.
func expiredDrops[Req, Resp any](b *Batcher[Req, Resp]) (n int64) {
	for _, st := range b.Stats() {
		n += st.Expired
	}
	return n
}
