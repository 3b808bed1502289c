package sched_test

// The live half of the scheduler: the one wall-clock batching loop
// (batching.Batcher) driving a multi-tenant sched.Core. The test names
// keep the dispatcher vocabulary — the loop's goroutine dispatches the
// batches the core assembles.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"etude/internal/batching"
	"etude/internal/sched"
)

// newDispatcher starts the batching loop over cfg with each request's
// tenant read from tenantOf.
func newDispatcher[Req, Resp any](t *testing.T, cfg sched.Config, tenantOf func(Req) string, handler batching.Handler[Req, Resp]) *batching.Batcher[Req, Resp] {
	t.Helper()
	b, err := batching.NewTenants(cfg, nil, tenantOf, 1, handler)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b
}

// tenantT queues every int request under tenant "t".
func tenantT(int) string { return "t" }

// req is a request labelled with its tenant.
type req struct {
	tenant string
	v      int
}

func tenantOfReq(r req) string { return r.tenant }

func TestDispatcherServesAndEchoesOrder(t *testing.T) {
	var flushes atomic.Int64
	d := newDispatcher(t, sched.Config{MaxBatch: 8, FlushEvery: time.Millisecond}, tenantT, func(batch []int) []int {
		flushes.Add(1)
		out := make([]int, len(batch))
		for i, v := range batch {
			out[i] = v * v
		}
		return out
	})
	var wg sync.WaitGroup
	for i := 1; i <= 32; i++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			got, err := d.Submit(context.Background(), v)
			if err != nil {
				t.Errorf("Submit(%d): %v", v, err)
				return
			}
			if got != v*v {
				t.Errorf("Submit(%d) = %d, want %d", v, got, v*v)
			}
		}(i)
	}
	wg.Wait()
	if flushes.Load() == 0 {
		t.Fatal("no flushes recorded")
	}
}

func TestDispatcherBatches(t *testing.T) {
	var calls atomic.Int64
	d := newDispatcher(t, sched.Config{MaxBatch: 64, FlushEvery: 20 * time.Millisecond}, tenantT, func(batch []int) []int {
		calls.Add(1)
		return batch
	})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = d.Submit(context.Background(), 1)
		}()
	}
	wg.Wait()
	if calls.Load() > 8 {
		t.Fatalf("32 requests used %d handler calls — not batching", calls.Load())
	}
}

// waitPending polls until n submits are in flight.
func waitPending(t *testing.T, pending func() int, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for pending() < n {
		if time.Now().After(deadline) {
			t.Fatalf("pending = %d, want %d", pending(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestDispatcherShedsAtQueueBound(t *testing.T) {
	release := make(chan struct{})
	parked := make(chan struct{}, 1)
	d := newDispatcher(t, sched.Config{MaxBatch: 1, FlushEvery: time.Millisecond, MaxQueue: 2}, tenantOfReq, func(batch []req) []req {
		select {
		case parked <- struct{}{}:
		default:
		}
		<-release
		return batch
	})
	defer close(release)

	// Park the handler, then fill tenant t's queue to its bound.
	go func() { _, _ = d.Submit(context.Background(), req{"t", 0}) }()
	<-parked
	for i := 0; i < 2; i++ {
		go func() { _, _ = d.Submit(context.Background(), req{"t", 1}) }()
	}
	waitPending(t, d.Pending, 3)
	_, err := d.Submit(context.Background(), req{"t", 2})
	if !errors.Is(err, sched.ErrShed) {
		t.Fatalf("over-bound Submit = %v, want sched.ErrShed", err)
	}
	// A different tenant still gets in: the bound is per tenant.
	done := make(chan error, 1)
	go func() {
		_, err := d.Submit(context.Background(), req{"other", 3})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("other tenant returned early: %v", err)
	case <-time.After(10 * time.Millisecond):
		// still queued, not shed — good
	}
}

func TestDispatcherExpiresDeadEntries(t *testing.T) {
	release := make(chan struct{})
	parked := make(chan struct{}, 1)
	// An hour of deadline slack makes every deadline-bound flush
	// immediate, so request 1 is alone in the parked batch however late
	// the loop runs, and its minute-long budget cannot expire first.
	d := newDispatcher(t, sched.Config{MaxBatch: 8, FlushEvery: time.Hour, DeadlineSlack: time.Hour}, tenantT, func(batch []int) []int {
		select {
		case parked <- struct{}{}:
			<-release
		default:
		}
		return batch
	})

	ctx1, cancel1 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel1()
	go func() { _, _ = d.Submit(ctx1, 1) }()
	<-parked
	// ...queue a request that dies while the handler is stuck...
	ctx2, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	errc := make(chan error, 1)
	go func() {
		_, err := d.Submit(ctx2, 2)
		errc <- err
	}()
	// The caller gives up at its deadline while the handler is still
	// parked, so the entry is dead by the time the loop assembles again.
	err := <-errc
	close(release)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("dead entry Submit = %v, want a deadline error", err)
	}
	var st sched.TenantStats
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, s := range d.Stats() {
			if s.Tenant == "t" {
				st = s
			}
		}
		if st.Expired == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if st.Expired != 1 {
		t.Fatalf("tenant stats = %+v, want Expired 1", st)
	}
}

func TestDispatcherSubmitAfterClose(t *testing.T) {
	d, err := batching.NewTenants(sched.Config{MaxBatch: 1, FlushEvery: time.Millisecond}, nil, tenantT, 1, func(batch []int) []int { return batch })
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	d.Close() // idempotent
	if _, err := d.Submit(context.Background(), 1); !errors.Is(err, batching.ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

func TestDispatcherStatsSnapshot(t *testing.T) {
	d := newDispatcher(t, sched.Config{
		Tenants:    []sched.TenantConfig{{Name: "a", Weight: 3}, {Name: "b", Weight: 1}},
		MaxBatch:   8,
		FlushEvery: time.Millisecond,
	}, tenantOfReq, func(batch []req) []req { return batch })
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		tenant := "a"
		if i%2 == 0 {
			tenant = "b"
		}
		go func(tn string) {
			defer wg.Done()
			_, _ = d.Submit(context.Background(), req{tn, 0})
		}(tenant)
	}
	wg.Wait()
	var servedA, servedB int64
	for _, s := range d.Stats() {
		switch s.Tenant {
		case "a":
			servedA = s.Served
		case "b":
			servedB = s.Served
		}
	}
	if servedA != 3 || servedB != 3 {
		t.Fatalf("served a=%d b=%d, want 3 each", servedA, servedB)
	}
}
