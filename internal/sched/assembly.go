package sched

import "time"

// Assembly is the batch-formation policy Core applies: when a buffer must
// flush, and which buffered entries are already dead. It works on abstract
// monotonic timestamps (offsets from an arbitrary epoch) so the live
// batching loop (internal/batching) can drive it from the wall clock while
// the discrete-event simulator drives it from virtual time — the two
// substrates make identical flush decisions.
type Assembly struct {
	// MaxBatch flushes the buffer when this many entries are pending.
	MaxBatch int
	// FlushEvery bounds how long the oldest entry may wait in the buffer.
	FlushEvery time.Duration
	// DeadlineSlack is the headroom reserved before a member deadline: a
	// buffer holding an entry whose deadline is D flushes by D−slack, so
	// the batch is dispatched with time to actually serve the entry rather
	// than exactly when it dies. Schedulers with a cost model set it to
	// the expected batch service time; Config.Assembly defaults it.
	DeadlineSlack time.Duration
}

// Assembly returns the batch-formation policy the config describes: flush
// at TargetBatch (MaxBatch when unset) or after FlushEvery. A zero
// DeadlineSlack defaults to FlushEvery/4 capped at 5ms — enough headroom
// to dispatch before the deadline without noticeably shrinking the
// batching window; negative disables the slack.
func (c Config) Assembly() Assembly {
	c = c.withDefaults()
	slack := c.DeadlineSlack
	if slack == 0 {
		slack = min(c.FlushEvery/4, 5*time.Millisecond)
	}
	return Assembly{MaxBatch: c.TargetBatch, FlushEvery: c.FlushEvery, DeadlineSlack: max(slack, 0)}
}

// FlushAt returns the instant the buffer must flush: the oldest entry's
// enqueue time plus the flush interval, pulled earlier to the tightest
// member deadline minus the slack (zero deadline = none). Waiting past
// the tightest deadline would guarantee a dead entry in the batch, so the
// policy never does — it flushes early instead.
func (a Assembly) FlushAt(oldestEnq, tightestDeadline time.Duration) time.Duration {
	at := oldestEnq + a.FlushEvery
	if tightestDeadline > 0 && tightestDeadline-a.DeadlineSlack < at {
		at = tightestDeadline - a.DeadlineSlack
	}
	return at
}

// Full reports whether a buffer of n entries has hit the size bound.
func (a Assembly) Full(n int) bool { return n >= a.MaxBatch }

// Expired reports whether an entry with the given deadline (zero = none)
// is already dead at now. Dead entries must be answered, not batched:
// computing a response nobody is waiting for spends accelerator FLOPs the
// live entries need.
func (a Assembly) Expired(deadline, now time.Duration) bool {
	return deadline > 0 && deadline <= now
}
