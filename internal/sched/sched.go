// Package sched implements SLO-aware multi-tenant batch scheduling for the
// inference server: per-tenant queues in front of the model, weighted
// deficit-round-robin (WDRR) fairness with optional strict priority tiers,
// deadline-aware batch assembly (a buffer never waits past the tightest
// member deadline — it flushes early instead, via Assembly), and
// batch-size selection driven by the device cost model's amortisation curve
// rather than a fixed MaxBatch.
//
// sched decides; it never waits. The scheduling state machine lives in
// Core, which is deliberately substrate-agnostic: it holds no clock, no
// goroutine and no timer — every method takes an explicit monotonic
// timestamp. One wall-clock loop, batching.Batcher, drives a Core for the
// live server (the plain FIFO batcher is its one-tenant case); the
// discrete-event simulator (internal/sim) drives the very same Core from
// virtual time, so fairness and isolation properties proven in
// deterministic simulation are properties of the code the server runs,
// not of a parallel model of it.
package sched

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
)

// ErrShed is returned when a tenant's queue is at its bound: admitting
// more would let one tenant's backlog grow without limit. Callers answer
// 429 — the client should retry after backoff.
var ErrShed = errors.New("sched: tenant queue full")

// ErrExpired is returned for entries whose deadline passed while queued:
// they are dropped at assembly instead of spending accelerator FLOPs.
// Callers answer 504. It matches errors.Is(err, context.DeadlineExceeded)
// so budget-generic callers need no special case.
var ErrExpired error = expiredError{}

type expiredError struct{}

func (expiredError) Error() string { return "sched: deadline expired in tenant queue" }

func (expiredError) Is(target error) bool { return target == context.DeadlineExceeded }

// DefaultTenant is the queue name for requests that carry no tenant label.
const DefaultTenant = "default"

// TenantConfig declares one tenant's scheduling contract.
type TenantConfig struct {
	// Name keys the tenant's queue (the X-Tenant header value).
	Name string
	// Weight is the tenant's WDRR weight: under saturation, tenants in the
	// same priority tier receive throughput proportional to their weights.
	// Minimum (and default) 1.
	Weight int
	// Priority is the tenant's strict tier: lower tiers are exhausted
	// before higher ones contribute anything to a batch. Default 0. Use
	// sparingly — a saturated tier starves everything below it; weights
	// within a tier are the isolation mechanism, priorities are for
	// traffic classes that must always win (e.g. interactive vs batch).
	Priority int
}

// Config controls the scheduler.
type Config struct {
	// Tenants declares the known tenants. Requests from undeclared tenants
	// are admitted into a lazily-created queue with Weight 1, Priority 0 —
	// unknown traffic is isolated, not rejected.
	Tenants []TenantConfig
	// MaxBatch is the hard batch-size cap (accelerator memory bound).
	MaxBatch int
	// TargetBatch is the amortisation-driven batch size the scheduler
	// aims for: once this many requests are pending it assembles a batch
	// immediately rather than waiting out FlushEvery, and assembly never
	// exceeds it while smaller flushes remain deadline-bounded. Derive it
	// with AmortizedBatch from the device cost model. 0 means MaxBatch
	// (pure size/time batching, the paper's fixed policy).
	TargetBatch int
	// FlushEvery bounds how long the oldest pending request may wait.
	FlushEvery time.Duration
	// DeadlineSlack reserves headroom before the tightest member deadline
	// when pulling a flush early (see Assembly). Zero defaults to
	// FlushEvery/4 capped at 5ms (see Config.Assembly); set it to the
	// expected batch service time when a cost model is available.
	DeadlineSlack time.Duration
	// MaxQueue bounds each tenant's queue; enqueues beyond it shed with
	// ErrShed. 0 means unbounded (not recommended under overload: a
	// bounded queue is what keeps an admitted request's wait bounded).
	MaxQueue int
	// Quantum is the WDRR credit per weight unit added each time a queue's
	// turn comes around, in requests. Default 1: the smallest quantum
	// gives the finest-grained interleaving.
	Quantum int
}

func (c Config) withDefaults() Config {
	if c.MaxBatch < 1 {
		c.MaxBatch = 1
	}
	if c.TargetBatch <= 0 || c.TargetBatch > c.MaxBatch {
		c.TargetBatch = c.MaxBatch
	}
	if c.Quantum < 1 {
		c.Quantum = 1
	}
	return c
}

// Validate rejects nonsensical configurations.
func (c Config) Validate() error {
	if c.MaxBatch < 1 {
		return fmt.Errorf("sched: MaxBatch must be ≥ 1, got %d", c.MaxBatch)
	}
	if c.FlushEvery <= 0 {
		return fmt.Errorf("sched: FlushEvery must be positive, got %v", c.FlushEvery)
	}
	if c.TargetBatch > c.MaxBatch {
		return fmt.Errorf("sched: TargetBatch %d exceeds MaxBatch %d", c.TargetBatch, c.MaxBatch)
	}
	seen := map[string]bool{}
	for _, tc := range c.Tenants {
		if tc.Name == "" {
			return fmt.Errorf("sched: tenant with empty name")
		}
		if seen[tc.Name] {
			return fmt.Errorf("sched: duplicate tenant %q", tc.Name)
		}
		seen[tc.Name] = true
		if tc.Weight < 0 {
			return fmt.Errorf("sched: tenant %q has negative weight %d", tc.Name, tc.Weight)
		}
	}
	return nil
}

// ParseTenants decodes the CLI weight syntax "a:3,b:1" (weight defaults
// to 1 when omitted: "a,b:2"). An optional third field sets the strict
// priority tier: "interactive:4:0,batch:1:1".
func ParseTenants(s string) ([]TenantConfig, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []TenantConfig
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		tc := TenantConfig{Name: strings.TrimSpace(fields[0]), Weight: 1}
		if tc.Name == "" {
			return nil, fmt.Errorf("sched: empty tenant name in %q", s)
		}
		if len(fields) > 3 {
			return nil, fmt.Errorf("sched: tenant %q wants name[:weight[:priority]]", part)
		}
		if len(fields) >= 2 {
			w, err := parsePositive(fields[1])
			if err != nil {
				return nil, fmt.Errorf("sched: tenant %q weight: %v", tc.Name, err)
			}
			tc.Weight = w
		}
		if len(fields) == 3 {
			p, err := parsePositive(fields[2])
			if err != nil {
				return nil, fmt.Errorf("sched: tenant %q priority: %v", tc.Name, err)
			}
			tc.Priority = p
		}
		out = append(out, tc)
	}
	return out, nil
}

func parsePositive(s string) (int, error) {
	n := 0
	if s == "" {
		return 0, fmt.Errorf("empty")
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, fmt.Errorf("%q is not a non-negative integer", s)
		}
		n = n*10 + int(r-'0')
		if n > 1<<20 {
			return 0, fmt.Errorf("%q is out of range", s)
		}
	}
	return n, nil
}

// TenantStats counts one tenant's scheduling outcomes.
type TenantStats struct {
	// Tenant is the queue name.
	Tenant string
	// Weight and Priority echo the effective scheduling contract.
	Weight   int
	Priority int
	// Enqueued counts admissions into the queue.
	Enqueued int64
	// Served counts entries assembled into batches.
	Served int64
	// Shed counts enqueues refused at the queue bound (429).
	Shed int64
	// Expired counts entries dropped at assembly because their deadline
	// had passed (504) — deadline misses the scheduler refused to spend
	// FLOPs on.
	Expired int64
	// Pending is the current queue depth.
	Pending int
}

// entry is one queued request.
type entry[T any] struct {
	v        T
	enq      time.Duration
	deadline time.Duration // 0 = none
}

// queue is one tenant's FIFO plus its WDRR state.
type queue[T any] struct {
	cfg     TenantConfig
	items   []entry[T] // FIFO; head at items[0] (amortised via headIdx)
	head    int
	deficit int
	stats   TenantStats
}

func (q *queue[T]) len() int { return len(q.items) - q.head }

func (q *queue[T]) push(e entry[T]) { q.items = append(q.items, e) }

func (q *queue[T]) pop() entry[T] {
	e := q.items[q.head]
	var zero entry[T]
	q.items[q.head] = zero // release for GC
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return e
}

// Core is the scheduling state machine: per-tenant FIFO queues drained by
// weighted deficit round robin across strict priority tiers, with
// deadline-aware flush timing delegated to Assembly.
//
// Core is NOT goroutine-safe and holds no clock: every method takes `now`
// explicitly. The live batching loop serialises access behind a mutex;
// the simulator is single-threaded by construction.
type Core[T any] struct {
	cfg Config
	asm Assembly
	// tenants indexes queues by name; tiers holds the same queues grouped
	// by strict priority, ascending, in declaration order within a tier —
	// the WDRR visit order.
	tenants map[string]*queue[T]
	tiers   []*tier[T]
	pending int
	// tightest is the earliest deadline among queued entries (0 = none),
	// so NextFlushAt costs a look at each queue head, not every entry.
	tightest time.Duration
}

type tier[T any] struct {
	priority int
	queues   []*queue[T]
	// cursor is the persistent round-robin position: fairness must carry
	// across batches, not restart at the first tenant every flush.
	cursor int
}

// NewCore builds a Core. The config is validated and defaulted.
func NewCore[T any](cfg Config) (*Core[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	c := &Core[T]{cfg: cfg, asm: cfg.Assembly(), tenants: make(map[string]*queue[T])}
	for _, tc := range cfg.Tenants {
		c.addQueue(tc)
	}
	return c, nil
}

// addQueue registers a tenant queue and threads it into its tier.
func (c *Core[T]) addQueue(tc TenantConfig) *queue[T] {
	if tc.Weight < 1 {
		tc.Weight = 1
	}
	q := &queue[T]{cfg: tc}
	q.stats.Tenant = tc.Name
	q.stats.Weight = tc.Weight
	q.stats.Priority = tc.Priority
	c.tenants[tc.Name] = q
	for _, tr := range c.tiers {
		if tr.priority == tc.Priority {
			tr.queues = append(tr.queues, q)
			return q
		}
	}
	c.tiers = append(c.tiers, &tier[T]{priority: tc.Priority, queues: []*queue[T]{q}})
	sort.SliceStable(c.tiers, func(i, j int) bool { return c.tiers[i].priority < c.tiers[j].priority })
	return q
}

// lookup resolves (or lazily creates) the queue for a tenant name.
func (c *Core[T]) lookup(tenant string) *queue[T] {
	if tenant == "" {
		tenant = DefaultTenant
	}
	if q, ok := c.tenants[tenant]; ok {
		return q
	}
	return c.addQueue(TenantConfig{Name: tenant, Weight: 1})
}

// Enqueue admits one request into its tenant queue at time now, which must
// not decrease across calls (each queue's head is then its oldest entry).
// deadline is the request's absolute deadline on the caller's clock
// (0 = none). Returns ErrShed when the tenant's queue is at its bound.
func (c *Core[T]) Enqueue(now time.Duration, tenant string, deadline time.Duration, v T) error {
	q := c.lookup(tenant)
	if c.cfg.MaxQueue > 0 && q.len() >= c.cfg.MaxQueue {
		q.stats.Shed++
		return ErrShed
	}
	q.push(entry[T]{v: v, enq: now, deadline: deadline})
	q.stats.Enqueued++
	c.pending++
	if deadline > 0 && (c.tightest == 0 || deadline < c.tightest) {
		c.tightest = deadline
	}
	return nil
}

// Pending returns the total queued entries across all tenants.
func (c *Core[T]) Pending() int { return c.pending }

// Ready reports whether a batch should be assembled immediately: the
// pending count has reached the amortisation target (waiting further buys
// no amortisation, only latency) or the flush instant has arrived.
func (c *Core[T]) Ready(now time.Duration) bool {
	if c.pending == 0 {
		return false
	}
	if c.asm.Full(c.pending) {
		return true
	}
	at, ok := c.NextFlushAt()
	return ok && now >= at
}

// NextFlushAt returns the instant the buffered work must flush — the
// Assembly bound over all queued entries: the oldest entry's
// enqueue+FlushEvery, pulled earlier to the tightest member deadline
// minus slack. ok is false when nothing is queued.
func (c *Core[T]) NextFlushAt() (at time.Duration, ok bool) {
	for _, tr := range c.tiers {
		for _, q := range tr.queues {
			if q.len() == 0 {
				continue
			}
			bound := c.asm.FlushAt(q.items[q.head].enq, c.tightest)
			if !ok || bound < at {
				at, ok = bound, true
			}
		}
	}
	return at, ok
}

// Assemble drains expired entries and builds the next batch at time now.
// Expired entries (deadline passed while queued) are returned separately
// so the caller can answer them 504 — they never consume batch slots or
// handler FLOPs. The batch is drained by WDRR: strict priority tiers in
// ascending order; within a tier each queue's turn credits
// Quantum×Weight deficit and serves up to its deficit, so saturated
// tenants converge to throughput shares proportional to their weights
// while idle tenants bank nothing. At most TargetBatch entries are
// assembled — the amortisation knee; a larger batch would add latency
// faster than it amortises fixed cost. Assemble appends to batch and
// expired, which must be empty: nil, or storage to reuse.
func (c *Core[T]) Assemble(now time.Duration, batch, expired []T) ([]T, []T) {
	defer c.retighten()
	for _, tr := range c.tiers {
		for _, q := range tr.queues {
			expired = c.dropExpired(q, now, expired)
		}
	}
	if c.pending == 0 {
		return batch, expired
	}
	max := c.cfg.TargetBatch
	if max > c.pending {
		max = c.pending
	}
	batch = slices.Grow(batch, max)
	for _, tr := range c.tiers {
		c.drainTier(tr, &batch, max)
		if len(batch) >= max {
			break
		}
	}
	return batch, expired
}

// retighten recomputes the earliest queued deadline after entries leave.
func (c *Core[T]) retighten() {
	c.tightest = 0
	for _, q := range c.tenants {
		for _, e := range q.items[q.head:] {
			if e.deadline > 0 && (c.tightest == 0 || e.deadline < c.tightest) {
				c.tightest = e.deadline
			}
		}
	}
}

// dropExpired filters dead entries out of one queue, preserving FIFO
// order of the survivors.
func (c *Core[T]) dropExpired(q *queue[T], now time.Duration, expired []T) []T {
	n := q.len()
	if n == 0 {
		return expired
	}
	live := q.items[:0]
	for i := q.head; i < len(q.items); i++ {
		e := q.items[i]
		if c.asm.Expired(e.deadline, now) {
			expired = append(expired, e.v)
			q.stats.Expired++
			c.pending--
			continue
		}
		live = append(live, e)
	}
	q.items = live
	q.head = 0
	return expired
}

// Drain removes every queued entry and returns them in enqueue order
// (ties by priority tier, then tenant declaration order): for a substrate that must answer all of its
// work at once, such as a crashing simulated pod. Tenant counters are
// kept; deficits reset, since the queues are empty.
func (c *Core[T]) Drain() []T {
	all := make([]entry[T], 0, c.pending)
	for _, tr := range c.tiers {
		for _, q := range tr.queues {
			all = append(all, q.items[q.head:]...)
			clear(q.items)
			q.items, q.head, q.deficit = q.items[:0], 0, 0
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].enq < all[j].enq })
	out := make([]T, len(all))
	for i, e := range all {
		out[i] = e.v
	}
	c.pending, c.tightest = 0, 0
	return out
}

// drainTier runs WDRR rounds over one priority tier until the batch is
// full or the tier is empty.
func (c *Core[T]) drainTier(tr *tier[T], batch *[]T, max int) {
	n := len(tr.queues)
	if n == 0 {
		return
	}
	idle := 0 // consecutive queues that contributed nothing
	for len(*batch) < max && idle < n {
		q := tr.queues[tr.cursor%n]
		tr.cursor = (tr.cursor + 1) % n
		if q.len() == 0 {
			// An empty queue banks no credit: DRR resets its deficit so a
			// tenant cannot save up idle turns and burst past its share.
			q.deficit = 0
			idle++
			continue
		}
		q.deficit += c.cfg.Quantum * q.cfg.Weight
		for q.deficit >= 1 && q.len() > 0 && len(*batch) < max {
			e := q.pop()
			*batch = append(*batch, e.v)
			q.deficit--
			q.stats.Served++
			c.pending--
		}
		if q.len() == 0 {
			q.deficit = 0
		}
		idle = 0
	}
}

// Stats returns a snapshot of every tenant's counters, sorted by tenant
// name for stable rendering.
func (c *Core[T]) Stats() []TenantStats {
	out := make([]TenantStats, 0, len(c.tenants))
	for _, q := range c.tenants {
		s := q.stats
		s.Pending = q.len()
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
