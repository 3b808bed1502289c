// Package sim is the discrete-event simulator that stands in for the
// paper's GCP/Kubernetes testbed: it drives the load-generation schedule of
// Algorithm 2 (virtual one-second ticks, time-proportional ramp-up, evenly
// spread requests, backpressure) against simulated serving instances whose
// service times come from the accelerator cost models in internal/device.
//
// A simulated instance (Instance) queues and batches through sched.Core,
// the state machine the live server's batching loop runs, driven here from
// virtual time: one request at a time on CPU, the 2ms/1024 batcher on GPUs,
// or the multi-tenant scheduler (NewSchedInstance). The simulator
// therefore makes the live server's batch decisions.
//
// A full ten-minute, 1,000 req/s end-to-end run — hours of wall time on a
// cloud — simulates in milliseconds, deterministically, which is how this
// repository regenerates Fig 4 and Table I.
package sim

import (
	"container/heap"
	"time"
)

// Engine is a deterministic discrete-event executor over virtual time.
type Engine struct {
	now   time.Duration
	queue eventQueue
	seq   uint64
}

// NewEngine returns an engine at virtual time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Schedule runs fn after delay (clamped to now for non-positive delays).
// Events at equal times run in scheduling order.
func (e *Engine) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	heap.Push(&e.queue, &event{at: e.now + delay, seq: e.seq, fn: fn})
}

// Run executes events until the queue empties or virtual time would pass
// `until`. Events exactly at `until` still run.
func (e *Engine) Run(until time.Duration) {
	for e.queue.Len() > 0 {
		next := e.queue[0]
		if next.at > until {
			break
		}
		heap.Pop(&e.queue)
		e.now = next.at
		next.fn()
	}
	if e.now < until {
		e.now = until
	}
}

// Drain executes all remaining events regardless of time.
func (e *Engine) Drain() {
	for e.queue.Len() > 0 {
		ev := heap.Pop(&e.queue).(*event)
		e.now = ev.at
		ev.fn()
	}
}

type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}
