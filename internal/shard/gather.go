package shard

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"etude/internal/topk"
)

// errShardSkipped marks a shard sub-request never sent because the group's
// breaker was open — a miss for coverage accounting, but not a health
// signal to feed back into the breaker.
var errShardSkipped = errors.New("shard: skipped by open group breaker")

// errSameReplica is a driver's answer to a backup whose only pick is the
// primary's own replica (a single-replica group): a backup there would
// duplicate the request on the pod that is already slow.
var errSameReplica = errors.New("shard: backup would land on the primary's replica")

// noDeadline is the hedge budget of a request without a deadline.
const noDeadline = time.Duration(math.MaxInt64)

// gatherCore holds the scatter-gather decisions of one fleet — the serving
// policy, the adaptive hedge delay, one breaker per shard group and the
// counters — shared by every request and by both drivers: the live Gateway
// (goroutines, wall-clock timers, context cancel) and the simulated SimFleet
// (engine events). It reads no clock: every input carries its time, wall
// time since the gateway started or the engine's virtual time.
type gatherCore struct {
	policy   Policy
	timer    *hedgeTimer
	breakers []*groupBreaker
	stats    HedgeStats
	pstats   PartialStats
	// log, when set, receives every action in the order it is taken —
	// the trace the live and simulated drivers are compared on.
	log func(action string)
}

func newGatherCore(shards int, p Policy, h HedgeConfig) *gatherCore {
	c := &gatherCore{policy: p.withDefaults(), timer: newHedgeTimer(h), breakers: make([]*groupBreaker, shards)}
	for i := range c.breakers {
		c.breakers[i] = newGroupBreaker(p)
	}
	return c
}

// gatherDriver carries out one gather's actions on a substrate. It feeds
// the gather's inputs back one at a time, never from inside a call the
// gather made.
type gatherDriver interface {
	// send launches attempt a at a replica of shard s — a backup at a
	// replica other than the primary's — and returns how to cancel it. An
	// error means nothing was sent.
	send(a, s int, backup bool) (cancel func(), err error)
	// armHedge feeds hedgeFired(s) back after d.
	armHedge(s int, d time.Duration)
	// finish is called once, when the gather has its result.
	finish(g *gather)
}

type attempt struct {
	shard  int
	backup bool
	sent   time.Duration
	cancel func()
	over   bool // answered, failed or cancelled: later news is ignored
}

// gather is one request's scatter-gather state machine. Its inputs are
// start, outcome (attempt a answered or failed), hedgeFired and abort; its
// actions are send, hedge (a backup), cancel, skip, miss and finish.
type gather struct {
	c        *gatherCore
	d        gatherDriver
	attempts []attempt
	inflight []int  // per shard: attempts still out
	resolved []bool // per shard: answered or missed

	// The result, valid once done: partials[s] is shard s's answer, and
	// err is nil, a CoverageError or the error that ended the gather.
	done     bool
	err      error
	answered int
	missed   int
	firstErr error
	partials [][]topk.Result
}

func (c *gatherCore) newGather(d gatherDriver) *gather {
	n := len(c.breakers)
	return &gather{c: c, d: d, inflight: make([]int, n), resolved: make([]bool, n), partials: make([][]topk.Result, n)}
}

func (g *gather) emit(format string, args ...any) {
	if g.c.log != nil {
		g.c.log(fmt.Sprintf(format, args...))
	}
}

// start scatters the request: a primary to every shard group, bar the ones
// an open breaker skips under partial serving.
func (g *gather) start(now time.Duration) {
	c := g.c
	for s := 0; s < len(g.resolved) && !g.done; s++ {
		if c.policy.Mode == PolicyPartial && !c.breakers[s].allow(now) {
			// Brownout: a group whose breaker is open is a known miss — skip
			// it for free instead of paying a sub-request timeout.
			c.pstats.RecordSkipped()
			g.emit("skip %d", s)
			g.miss(s, errShardSkipped)
		} else if g.launch(s, false, now) && c.timer.cfg.Enabled {
			g.d.armHedge(s, c.timer.delay())
		}
	}
}

// launch sends one attempt at shard s, reporting whether it went out. A
// primary with no replica to go to fails its shard.
func (g *gather) launch(s int, backup bool, now time.Duration) bool {
	cancel, err := g.d.send(len(g.attempts), s, backup)
	switch {
	case err != nil && !backup:
		g.c.breakers[s].report(false, now)
		g.miss(s, err)
	case err == errSameReplica:
		g.c.stats.RecordSameReplica()
	case err == nil:
		g.attempts = append(g.attempts, attempt{shard: s, backup: backup, sent: now, cancel: cancel})
		g.inflight[s]++
		if backup {
			g.c.stats.RecordSent()
			g.emit("hedge %d", s)
		} else {
			g.emit("send %d", s)
		}
	}
	return err == nil
}

// outcome reports that attempt a answered (err nil) or failed at now.
func (g *gather) outcome(a int, now time.Duration, recs []topk.Result, err error) {
	at := &g.attempts[a]
	if at.over {
		return // cancelled by the core: not health evidence, not news
	}
	at.over = true
	s := at.shard
	g.inflight[s]--
	if err != nil {
		if g.inflight[s] == 0 {
			g.c.breakers[s].report(false, now)
			g.miss(s, err)
		}
		return // otherwise the hedged twin may still answer
	}
	c := g.c
	c.breakers[s].report(true, now)
	if at.backup {
		c.stats.RecordWin()
	} else {
		// Only winning primaries train the hedge delay (see hedgeTimer).
		c.timer.observe(now - at.sent)
	}
	for b := range g.attempts {
		if g.attempts[b].shard == s && g.cancel(b) {
			c.stats.RecordCancelled()
		}
	}
	g.resolved[s] = true
	g.partials[s] = recs
	g.answered++
	g.settle()
}

// hedgeFired reports shard s's hedge timer, with the request's remaining
// deadline budget (noDeadline without one).
func (g *gather) hedgeFired(s int, now, budget time.Duration) {
	switch {
	case g.done || g.resolved[s]:
	case budget < g.c.timer.delay():
		// A backup is expected to take about the hedge delay (the p95 of
		// healthy sub-requests). If the budget cannot cover that, the
		// backup is wasted work: the deadline would kill it before it
		// could win.
		g.c.stats.RecordSuppressed()
	default:
		g.launch(s, true, now)
	}
}

// abort ends the gather with err: the caller gave up, which says nothing
// about the shards' health.
func (g *gather) abort(err error) {
	if !g.done {
		g.finish(err, "error")
	}
}

// cancel abandons attempt a if it is still in flight.
func (g *gather) cancel(a int) bool {
	at := &g.attempts[a]
	if at.over {
		return false
	}
	at.over = true
	if at.cancel != nil {
		at.cancel()
	}
	g.emit("cancel %d", at.shard)
	return true
}

// miss declares shard s missed. Once the coverage floor is out of reach —
// at the first miss under fail-fast, whose floor is every shard — the
// gather ends at once and cancels the rest.
func (g *gather) miss(s int, err error) {
	g.resolved[s] = true
	g.missed++
	g.emit("miss %d", s)
	if g.firstErr == nil {
		g.firstErr = fmt.Errorf("shard %d: %w", s, err)
	}
	switch n, floor := len(g.resolved), g.c.policy.MinShards(len(g.resolved)); {
	case n-g.missed >= floor:
		g.settle()
	case g.c.policy.Mode == PolicyPartial:
		g.c.pstats.RecordFloorFailure()
		g.finish(&CoverageError{Answered: g.answered, Shards: n, Min: floor}, "coverage %d/%d", g.answered, n)
	default:
		g.finish(g.firstErr, "error")
	}
}

// settle finishes with the answering shards once every shard is resolved.
func (g *gather) settle() {
	if n := len(g.resolved); g.answered+g.missed == n {
		if g.answered < n {
			g.c.pstats.RecordPartial(float64(g.answered) / float64(n))
		} else {
			g.c.pstats.RecordFull()
		}
		g.finish(nil, "%d/%d", g.answered, n)
	}
}

// finish ends the gather with err (nil: the answering shards' result),
// cancels every attempt still out and logs how it ended.
func (g *gather) finish(err error, how string, args ...any) {
	g.done, g.err = true, err
	for a := range g.attempts {
		g.cancel(a)
	}
	g.emit("finish "+how, args...)
	g.d.finish(g)
}

// groupBreaker is the per-shard-group circuit breaker: after `threshold`
// consecutive scatter failures the group is skipped for `cooldown` — the
// brownout that keeps a blacked-out shard from charging every request a
// full sub-request timeout. The per-pod breakers inside a cluster.Balancer
// eject individual replicas; this breaker ejects the whole group, which
// matters exactly when every replica is gone and the Picker still hands
// out URLs (static pickers) or dials dead backends. Times are the driver's
// clock.
type groupBreaker struct {
	threshold int
	cooldown  time.Duration

	mu        sync.Mutex
	fails     int
	openUntil time.Duration
}

func newGroupBreaker(p Policy) *groupBreaker {
	p = p.withDefaults()
	return &groupBreaker{threshold: p.BreakerThreshold, cooldown: p.BreakerCooldown}
}

// allow reports whether the group should receive a sub-request: true while
// the breaker is closed, and again once an open breaker's cooldown has
// elapsed (the half-open probe — a failure re-opens it for another
// cooldown).
func (b *groupBreaker) allow(now time.Duration) bool {
	if b == nil || b.threshold < 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fails < b.threshold || now >= b.openUntil
}

// report feeds one sub-request outcome into the breaker.
func (b *groupBreaker) report(ok bool, now time.Duration) {
	if b == nil || b.threshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.fails = 0
		return
	}
	b.fails++
	if b.fails >= b.threshold {
		b.openUntil = now + b.cooldown
	}
}
