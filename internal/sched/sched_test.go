package sched

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"etude/internal/device"
	"etude/internal/model"
)

func newCore(t *testing.T, cfg Config) *Core[int] {
	t.Helper()
	c, err := NewCore[int](cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{MaxBatch: 0, FlushEvery: time.Millisecond},
		{MaxBatch: 4, FlushEvery: 0},
		{MaxBatch: 4, FlushEvery: time.Millisecond, TargetBatch: 8},
		{MaxBatch: 4, FlushEvery: time.Millisecond, Tenants: []TenantConfig{{Name: ""}}},
		{MaxBatch: 4, FlushEvery: time.Millisecond, Tenants: []TenantConfig{{Name: "a"}, {Name: "a"}}},
	}
	for i, cfg := range bad {
		if _, err := NewCore[int](cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestParseTenants(t *testing.T) {
	got, err := ParseTenants("a:3,b:1")
	if err != nil {
		t.Fatal(err)
	}
	want := []TenantConfig{{Name: "a", Weight: 3}, {Name: "b", Weight: 1}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("ParseTenants = %+v, want %+v", got, want)
	}
	got, err = ParseTenants("interactive:4:0, batch:1:1")
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Priority != 0 || got[1].Priority != 1 || got[1].Name != "batch" {
		t.Fatalf("priority parse = %+v", got)
	}
	if got, err := ParseTenants("solo"); err != nil || got[0].Weight != 1 {
		t.Fatalf("bare name: %+v, %v", got, err)
	}
	if n, err := ParseTenants(""); err != nil || n != nil {
		t.Fatalf("empty spec: %+v, %v", n, err)
	}
	for _, bad := range []string{"a:x", "a:1:2:3", ":3", "a:-1"} {
		if _, err := ParseTenants(bad); err == nil {
			t.Errorf("ParseTenants(%q) accepted", bad)
		}
	}
}

// TestWDRRSharesConvergeToWeights is the fairness acceptance property:
// two saturated tenants with weights 3:1 receive throughput shares within
// ±10% of 0.75/0.25.
func TestWDRRSharesConvergeToWeights(t *testing.T) {
	c := newCore(t, Config{
		Tenants:    []TenantConfig{{Name: "a", Weight: 3}, {Name: "b", Weight: 1}},
		MaxBatch:   8,
		FlushEvery: ms(2),
	})
	// Keep both tenants backlogged; count served per tenant over many batches.
	served := map[string]int{}
	now := time.Duration(0)
	for round := 0; round < 200; round++ {
		for c.tenants["a"].len() < 16 {
			if err := c.Enqueue(now, "a", 0, 1); err != nil {
				t.Fatal(err)
			}
		}
		for c.tenants["b"].len() < 16 {
			if err := c.Enqueue(now, "b", 0, 2); err != nil {
				t.Fatal(err)
			}
		}
		now += ms(2)
		batch, expired := c.Assemble(now, nil, nil)
		if len(expired) != 0 {
			t.Fatalf("unexpected expiries: %d", len(expired))
		}
		if len(batch) != 8 {
			t.Fatalf("saturated assemble returned %d, want full target 8", len(batch))
		}
		for _, v := range batch {
			if v == 1 {
				served["a"]++
			} else {
				served["b"]++
			}
		}
	}
	total := served["a"] + served["b"]
	shareA := float64(served["a"]) / float64(total)
	if shareA < 0.75*0.9 || shareA > 0.75*1.1 {
		t.Fatalf("tenant a share = %.3f, want 0.75 ± 10%%", shareA)
	}
}

// TestWDRRFairnessAcrossUnevenArrival: a tenant that was idle banks no
// deficit — when it wakes it gets its weighted share from then on, not a
// burst of saved-up credit.
func TestWDRRNoBankedCreditWhileIdle(t *testing.T) {
	c := newCore(t, Config{
		Tenants:    []TenantConfig{{Name: "a", Weight: 1}, {Name: "b", Weight: 1}},
		MaxBatch:   4,
		FlushEvery: ms(2),
	})
	now := time.Duration(0)
	// Only A has traffic for many rounds.
	for round := 0; round < 50; round++ {
		for i := 0; i < 4; i++ {
			_ = c.Enqueue(now, "a", 0, 1)
		}
		batch, _ := c.Assemble(now, nil, nil)
		if len(batch) != 4 {
			t.Fatalf("round %d: batch %d", round, len(batch))
		}
	}
	// B wakes up: in a saturated 1:1 round it must get ~half, not the whole
	// batch off banked credit.
	for i := 0; i < 8; i++ {
		_ = c.Enqueue(now, "a", 0, 1)
		_ = c.Enqueue(now, "b", 0, 2)
	}
	batch, _ := c.Assemble(now, nil, nil)
	nb := 0
	for _, v := range batch {
		if v == 2 {
			nb++
		}
	}
	if nb != 2 {
		t.Fatalf("woken tenant got %d of 4 slots in a 1:1 round, want 2", nb)
	}
}

// TestStrictPriorityTiers: a lower tier contributes nothing while a
// higher tier has pending work.
func TestStrictPriorityTiers(t *testing.T) {
	c := newCore(t, Config{
		Tenants: []TenantConfig{
			{Name: "interactive", Weight: 1, Priority: 0},
			{Name: "batch", Weight: 8, Priority: 1},
		},
		MaxBatch:   4,
		FlushEvery: ms(2),
	})
	now := time.Duration(0)
	for i := 0; i < 6; i++ {
		_ = c.Enqueue(now, "interactive", 0, 1)
		_ = c.Enqueue(now, "batch", 0, 2)
	}
	batch, _ := c.Assemble(now, nil, nil)
	for _, v := range batch {
		if v != 1 {
			t.Fatalf("batch-tier entry served while the interactive tier had %d pending", c.tenants["interactive"].len())
		}
	}
	// Once the interactive tier drains, the batch tier fills the slack.
	batch, _ = c.Assemble(now, nil, nil)
	want := map[int]int{1: 2, 2: 2}
	got := map[int]int{}
	for _, v := range batch {
		got[v]++
	}
	if got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("mixed batch = %v, want 2 interactive + 2 batch", got)
	}
}

func TestMaxQueueSheds(t *testing.T) {
	c := newCore(t, Config{MaxBatch: 64, FlushEvery: ms(2), MaxQueue: 3})
	now := time.Duration(0)
	for i := 0; i < 3; i++ {
		if err := c.Enqueue(now, "a", 0, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Enqueue(now, "a", 0, 99); !errors.Is(err, ErrShed) {
		t.Fatalf("over-bound enqueue = %v, want ErrShed", err)
	}
	// Other tenants' queues are unaffected — the bound is per tenant.
	if err := c.Enqueue(now, "b", 0, 1); err != nil {
		t.Fatalf("other tenant shed: %v", err)
	}
	st := statsFor(t, c, "a")
	if st.Shed != 1 || st.Enqueued != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestExpiredDroppedAtAssembly: entries whose deadline passed while
// queued come back in the expired list — never in the batch.
func TestExpiredDroppedAtAssembly(t *testing.T) {
	c := newCore(t, Config{MaxBatch: 8, FlushEvery: ms(2)})
	_ = c.Enqueue(0, "a", ms(1), 1)  // dies at 1ms
	_ = c.Enqueue(0, "a", ms(50), 2) // alive
	_ = c.Enqueue(0, "a", 0, 3)      // no deadline
	batch, expired := c.Assemble(ms(2), nil, nil)
	if len(expired) != 1 || expired[0] != 1 {
		t.Fatalf("expired = %v, want the 1ms entry", expired)
	}
	if len(batch) != 2 {
		t.Fatalf("batch = %v, want both live entries", batch)
	}
	st := statsFor(t, c, "a")
	if st.Expired != 1 || st.Served != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestNextFlushAtEmptyBufferReset: an empty core holds no flush instant;
// the first enqueue establishes a fresh FlushEvery window from its own
// enqueue time — the "empty-buffer timer reset" semantics under the
// virtual clock.
func TestNextFlushAtEmptyBufferReset(t *testing.T) {
	c := newCore(t, Config{MaxBatch: 8, FlushEvery: ms(2)})
	if _, ok := c.NextFlushAt(); ok {
		t.Fatal("empty core reported a flush instant")
	}
	_ = c.Enqueue(ms(10), "a", 0, 1)
	at, ok := c.NextFlushAt()
	if !ok || at != ms(12) {
		t.Fatalf("NextFlushAt = %v, %v; want 12ms", at, ok)
	}
	batch, _ := c.Assemble(ms(12), nil, nil)
	if len(batch) != 1 {
		t.Fatalf("flush served %d", len(batch))
	}
	if _, ok := c.NextFlushAt(); ok {
		t.Fatal("drained core still reports a flush instant")
	}
	// A much later arrival gets its own window, not the stale one.
	_ = c.Enqueue(ms(100), "a", 0, 2)
	if at, _ := c.NextFlushAt(); at != ms(102) {
		t.Fatalf("fresh window = %v, want 102ms", at)
	}
}

// TestReadyCoalescesAtTargetBatch: once TargetBatch entries are pending
// the core is ready immediately — no waiting out the flush interval.
func TestReadyCoalescesAtTargetBatch(t *testing.T) {
	c := newCore(t, Config{MaxBatch: 64, TargetBatch: 4, FlushEvery: time.Hour})
	now := time.Duration(0)
	for i := 0; i < 3; i++ {
		_ = c.Enqueue(now, "a", 0, i)
		if c.Ready(now) {
			t.Fatalf("ready with %d < target pending", i+1)
		}
	}
	_ = c.Enqueue(now, "a", 0, 3)
	if !c.Ready(now) {
		t.Fatal("not ready at TargetBatch pending")
	}
	batch, _ := c.Assemble(now, nil, nil)
	if len(batch) != 4 {
		t.Fatalf("coalesced batch = %d, want the full target 4", len(batch))
	}
	// Assembly is capped at TargetBatch even when more is pending.
	for i := 0; i < 10; i++ {
		_ = c.Enqueue(now, "a", 0, i)
	}
	batch, _ = c.Assemble(now, nil, nil)
	if len(batch) != 4 {
		t.Fatalf("assembled %d, want TargetBatch 4", len(batch))
	}
}

// TestNoBatchWaitsPastTightestDeadline is the scheduler-level property
// test: for random arrival patterns, the instant the core picks to flush
// never lies past any queued entry's deadline, and any entry that IS past
// its deadline at assembly is dropped, never batched.
func TestNoBatchWaitsPastTightestDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		c := newCore(t, Config{
			Tenants: []TenantConfig{
				{Name: "a", Weight: 1 + rng.Intn(4)},
				{Name: "b", Weight: 1 + rng.Intn(4)},
			},
			MaxBatch:      16,
			FlushEvery:    ms(2),
			DeadlineSlack: -1, // exact-deadline flushing for the property
		})
		now := time.Duration(rng.Int63n(int64(time.Second)))
		type tracked struct {
			deadline time.Duration
		}
		byValue := map[int]tracked{}
		n := 1 + rng.Intn(12)
		for i := 0; i < n; i++ {
			now += time.Duration(rng.Int63n(int64(ms(1))))
			var dl time.Duration
			if rng.Intn(2) == 0 {
				dl = now + time.Duration(rng.Int63n(int64(ms(4))))
			}
			tn := "a"
			if rng.Intn(2) == 0 {
				tn = "b"
			}
			byValue[i] = tracked{deadline: dl}
			if err := c.Enqueue(now, tn, dl, i); err != nil {
				t.Fatal(err)
			}
		}
		at, ok := c.NextFlushAt()
		if !ok {
			t.Fatal("no flush instant with pending entries")
		}
		for v, tr := range byValue {
			if tr.deadline > 0 && at > tr.deadline {
				t.Fatalf("trial %d: flush instant %v waits past entry %d deadline %v", trial, at, v, tr.deadline)
			}
		}
		// Advance to the flush instant and assemble: nothing in the batch
		// may be past-deadline at that instant.
		flushNow := at
		if flushNow < now {
			flushNow = now
		}
		batch, expired := c.Assemble(flushNow, nil, nil)
		for _, v := range batch {
			if dl := byValue[v].deadline; dl > 0 && dl < flushNow {
				t.Fatalf("trial %d: batched entry %d was dead (deadline %v, flush %v)", trial, v, dl, flushNow)
			}
		}
		for _, v := range expired {
			if dl := byValue[v].deadline; dl == 0 || dl > flushNow {
				t.Fatalf("trial %d: live entry %d reported expired", trial, v)
			}
		}
	}
}

func TestUnknownTenantLazilyCreated(t *testing.T) {
	c := newCore(t, Config{Tenants: []TenantConfig{{Name: "a", Weight: 3}}, MaxBatch: 8, FlushEvery: ms(2)})
	if err := c.Enqueue(0, "surprise", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Enqueue(0, "", 0, 2); err != nil {
		t.Fatal(err)
	}
	st := statsFor(t, c, "surprise")
	if st.Weight != 1 || st.Priority != 0 {
		t.Fatalf("lazy tenant contract = %+v, want weight 1 tier 0", st)
	}
	if s := statsFor(t, c, DefaultTenant); s.Enqueued != 1 {
		t.Fatalf("unlabelled request not in %q queue: %+v", DefaultTenant, s)
	}
}

func statsFor(t *testing.T, c *Core[int], tenant string) TenantStats {
	t.Helper()
	for _, s := range c.Stats() {
		if s.Tenant == tenant {
			return s
		}
	}
	t.Fatalf("no stats for tenant %q", tenant)
	return TenantStats{}
}

func TestAmortizedBatch(t *testing.T) {
	cost := model.Cost{
		Catalog: 1_000_000, SharedBytes: 256e6, PerRequestBytes: 8e6,
		EncoderFLOPs: 1e6, MIPSFLOPs: 1.28e8, KernelLaunches: 30,
	}
	t4 := device.GPUT4()
	b := AmortizedBatch(t4, cost, false, 0)
	if b < 2 || b > t4.EffectiveMaxBatch(cost) {
		t.Fatalf("AmortizedBatch = %d, want inside (1, %d]", b, t4.EffectiveMaxBatch(cost))
	}
	// The knee criterion: at B the fixed share is ≤ eps of marginal cost;
	// at B−1 it is not.
	t1 := t4.BatchInference(cost, 1, false)
	t2 := t4.BatchInference(cost, 2, false)
	perReq := float64(t2 - t1)
	fixed := float64(t1) - perReq
	eps := DefaultAmortizationEps
	if fixed/(float64(b)*perReq) > eps {
		t.Fatalf("B=%d does not satisfy the knee criterion", b)
	}
	if b > 1 && fixed/(float64(b-1)*perReq) <= eps {
		t.Fatalf("B=%d is not minimal", b)
	}
	// Tighter eps grows the target; looser shrinks it.
	if loose := AmortizedBatch(t4, cost, false, 0.5); loose > b {
		t.Fatalf("looser eps produced a larger batch: %d > %d", loose, b)
	}
	if tight := AmortizedBatch(t4, cost, false, 0.001); tight < b {
		t.Fatalf("tighter eps produced a smaller batch: %d < %d", tight, b)
	}
	// CPU specs have no amortisation curve.
	if got := AmortizedBatch(device.CPU(), cost, false, 0); got != 1 {
		t.Fatalf("CPU AmortizedBatch = %d, want 1", got)
	}
}

func TestServiceTimeMatchesCostModel(t *testing.T) {
	cost := model.Cost{Catalog: 100_000, SharedBytes: 25.6e6, PerRequestBytes: 8e5, MIPSFLOPs: 1.28e7, KernelLaunches: 30}
	spec := device.GPUT4()
	if got, want := ServiceTime(spec, cost, 64, true), spec.BatchInference(cost, 64, true); got != want {
		t.Fatalf("ServiceTime = %v, want %v", got, want)
	}
}

// Drain empties every tenant queue at once, in enqueue order across
// tenants, and leaves the core as if it had never held them: nothing
// pending, no flush bound, no stale deadline pulling the next flush early.
func TestDrainReturnsEnqueueOrderAndResets(t *testing.T) {
	c := newCore(t, Config{
		Tenants:    []TenantConfig{{Name: "hi", Priority: 0}, {Name: "a", Weight: 3, Priority: 1}, {Name: "b", Priority: 1}},
		MaxBatch:   8,
		FlushEvery: ms(10),
	})
	// Arrival order interleaves tenants and tiers; the deadline on entry 3
	// sets the tightest bound.
	for i, tenant := range []string{"b", "a", "hi", "b", "a"} {
		var deadline time.Duration
		if i == 3 {
			deadline = ms(4)
		}
		if err := c.Enqueue(ms(i), tenant, deadline, i); err != nil {
			t.Fatal(err)
		}
	}
	got := c.Drain()
	want := []int{0, 1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("Drain = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Drain = %v, want enqueue order %v", got, want)
		}
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d after Drain", c.Pending())
	}
	if at, ok := c.NextFlushAt(); ok {
		t.Fatalf("NextFlushAt = %v after Drain, want none", at)
	}
	if c.Ready(ms(100)) {
		t.Fatal("Ready after Drain")
	}
	if got := c.Drain(); len(got) != 0 {
		t.Fatalf("second Drain = %v, want empty", got)
	}
	// The drained deadline no longer pulls the flush: a fresh entry waits
	// its full interval.
	if err := c.Enqueue(ms(20), "a", 0, 5); err != nil {
		t.Fatal(err)
	}
	if at, ok := c.NextFlushAt(); !ok || at != ms(30) {
		t.Fatalf("NextFlushAt = %v, %v; want %v", at, ok, ms(30))
	}
	batch, expired := c.Assemble(ms(30), nil, nil)
	if len(batch) != 1 || batch[0] != 5 || len(expired) != 0 {
		t.Fatalf("Assemble after Drain = %v, %v", batch, expired)
	}
	// Counters survive: drained entries were enqueued but neither served
	// nor expired.
	for _, st := range c.Stats() {
		if st.Tenant == "b" && (st.Enqueued != 2 || st.Served != 0 || st.Pending != 0) {
			t.Fatalf("tenant b stats = %+v", st)
		}
	}
}
