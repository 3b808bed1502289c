package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"etude/internal/device"
	"etude/internal/metrics"
	"etude/internal/model"
	"etude/internal/sched"
	"etude/internal/sim"
	"etude/internal/trace"
	"etude/internal/workload"
)

// TenantCmpConfig controls the multi-tenant isolation study: tenant A's
// flash crowd against tenant B's steady interactive traffic, served either
// through the WDRR scheduler (per-tenant queues, weighted shares) or a
// single shared queue (the no-scheduler baseline), plus a saturation arm
// that measures whether served shares track the configured weights.
type TenantCmpConfig struct {
	// Device is the instance type (default gpu-t4 with JIT).
	Device device.Spec
	JIT    bool
	// Model and Catalog shape the served model. The default 100k catalog
	// keeps the full-batch service time ~1ms on gpu-t4, so victim latency
	// reflects scheduling, not raw device occupancy.
	Model   string
	Catalog int
	// WeightA/WeightB are the tenants' WDRR weights.
	WeightA, WeightB int
	// VictimRate is tenant B's steady arrival rate (req/s); CrowdRate is
	// tenant A's base rate, multiplied by CrowdFactor during
	// [CrowdStart, CrowdStart+CrowdLen) — the flash crowd.
	VictimRate  float64
	CrowdRate   float64
	CrowdFactor float64
	CrowdStart  time.Duration
	CrowdLen    time.Duration
	// Horizon is each comparison arm's run length on the sim clock.
	Horizon time.Duration
	// SLO is tenant B's admitted-latency p99 target.
	SLO time.Duration
	// Scheduler shape shared by every arm.
	MaxBatch   int
	FlushEvery time.Duration
	MaxQueue   int
	// FairnessRate is the per-tenant offered rate of the saturation arm
	// (both tenants offer it simultaneously) over FairnessHorizon.
	FairnessRate    float64
	FairnessHorizon time.Duration
	Seed            int64
}

// DefaultTenantCmpConfig returns the headline study: gru4rec on gpu-t4
// over a 100k catalog; tenant B at 1,000 req/s with a 10ms p99 SLO;
// tenant A at 8,000 req/s spiking 5× (to ~1.25× device capacity) for a
// third of the run; weights 3:1.
func DefaultTenantCmpConfig() TenantCmpConfig {
	return TenantCmpConfig{
		Device:          device.GPUT4(),
		JIT:             true,
		Model:           "gru4rec",
		Catalog:         100_000,
		WeightA:         3,
		WeightB:         1,
		VictimRate:      1_000,
		CrowdRate:       8_000,
		CrowdFactor:     5,
		CrowdStart:      100 * time.Millisecond,
		CrowdLen:        100 * time.Millisecond,
		Horizon:         300 * time.Millisecond,
		SLO:             10 * time.Millisecond,
		MaxBatch:        32,
		FlushEvery:      2 * time.Millisecond,
		MaxQueue:        512,
		FairnessRate:    30_000,
		FairnessHorizon: 200 * time.Millisecond,
		Seed:            1,
	}
}

// TenantRow is one tenant's outcome within one arm.
type TenantRow struct {
	Tenant string `json:"tenant"`
	Weight int    `json:"weight"`
	Sent   int    `json:"sent"`
	Served int    `json:"served"`
	Shed   int    `json:"shed"`
	// Expired counts deadline misses the scheduler dropped at assembly.
	Expired int `json:"expired"`
	// Latency summarises the tenant's served requests.
	Latency metrics.Snapshot `json:"latency"`
}

// GoodputFraction is the tenant's served/sent ratio.
func (t TenantRow) GoodputFraction() float64 {
	return ratio(float64(t.Served), float64(t.Sent))
}

// TenantArm is one scheduling policy's outcome under the flash crowd.
type TenantArm struct {
	// Arm names the cell: "quiet" (no crowd, WDRR), "wdrr" (crowd, WDRR),
	// "shared" (crowd, single shared queue), "fairness" (saturation).
	Arm     string      `json:"arm"`
	Tenants []TenantRow `json:"tenants"`
	Flushes int64       `json:"flushes"`
	// SchedWait is the enqueue→flush stage distribution of the arm.
	SchedWait metrics.Snapshot `json:"sched_wait"`
}

// Tenant finds one tenant's row.
func (a *TenantArm) Tenant(name string) *TenantRow {
	for i := range a.Tenants {
		if a.Tenants[i].Tenant == name {
			return &a.Tenants[i]
		}
	}
	return nil
}

// TenantCmpResult aggregates the four arms.
type TenantCmpResult struct {
	Device  string        `json:"device"`
	Model   string        `json:"model"`
	Catalog int           `json:"catalog"`
	SLO     time.Duration `json:"slo"`
	Arms    []TenantArm   `json:"arms"`
	// QuietP99/IsolatedP99/ExposedP99 are tenant B's served p99 without
	// the crowd, with the crowd behind WDRR, and with the crowd in a
	// shared queue.
	QuietP99    time.Duration `json:"quiet_p99"`
	IsolatedP99 time.Duration `json:"isolated_p99"`
	ExposedP99  time.Duration `json:"exposed_p99"`
	// IsolationMeetsSLO is the headline claim: under A's flash crowd,
	// B's served p99 stays within the SLO and within 1.25× its quiet
	// baseline.
	IsolationMeetsSLO bool `json:"isolation_meets_slo"`
	// BaselineViolates records that the shared queue breaks the same
	// contract — the scheduler is necessary, not incidental.
	BaselineViolates bool `json:"baseline_violates"`
	// ShareA is tenant A's served share in the saturation arm; ShareErr
	// its absolute error against the configured weight fraction.
	ShareA   float64 `json:"share_a"`
	ShareErr float64 `json:"share_err"`
}

// Arm finds one arm by name.
func (r *TenantCmpResult) Arm(name string) *TenantArm {
	for i := range r.Arms {
		if r.Arms[i].Arm == name {
			return &r.Arms[i]
		}
	}
	return nil
}

// TenantComparison runs the study. Every arm is a deterministic sim run:
// Poisson arrivals come from seeded thinning (internal/workload), service
// from the analytic device cost model, scheduling from the very sched.Core
// the live server runs.
func TenantComparison(cfg TenantCmpConfig) (*TenantCmpResult, error) {
	if cfg.Model == "" || cfg.Horizon <= 0 || cfg.VictimRate <= 0 || cfg.CrowdRate <= 0 {
		return nil, fmt.Errorf("experiments: invalid tenant config %+v", cfg)
	}
	res := &TenantCmpResult{
		Device: cfg.Device.Name, Model: cfg.Model, Catalog: cfg.Catalog, SLO: cfg.SLO,
	}

	crowdSchedule := func(flash bool) workload.RateSchedule {
		base := workload.ConstantRate(cfg.CrowdRate)
		if !flash {
			return base
		}
		return workload.FlashCrowd{Base: base, Start: cfg.CrowdStart, Length: cfg.CrowdLen, Factor: cfg.CrowdFactor}
	}

	for _, arm := range []struct {
		name   string
		flash  bool
		shared bool
	}{
		{"quiet", false, false},
		{"wdrr", true, false},
		{"shared", true, true},
	} {
		row, err := runTenantArm(cfg, arm.name, map[string]workload.RateSchedule{
			"a": crowdSchedule(arm.flash),
			"b": workload.ConstantRate(cfg.VictimRate),
		}, cfg.Horizon, arm.shared)
		if err != nil {
			return nil, fmt.Errorf("experiments: tenant arm %s: %w", arm.name, err)
		}
		res.Arms = append(res.Arms, *row)
	}

	fair, err := runTenantArm(cfg, "fairness", map[string]workload.RateSchedule{
		"a": workload.ConstantRate(cfg.FairnessRate),
		"b": workload.ConstantRate(cfg.FairnessRate),
	}, cfg.FairnessHorizon, false)
	if err != nil {
		return nil, fmt.Errorf("experiments: tenant arm fairness: %w", err)
	}
	res.Arms = append(res.Arms, *fair)

	victim := func(arm string) time.Duration {
		if a := res.Arm(arm); a != nil {
			if t := a.Tenant("b"); t != nil {
				return t.Latency.P99
			}
		}
		return 0
	}
	res.QuietP99 = victim("quiet")
	res.IsolatedP99 = victim("wdrr")
	res.ExposedP99 = victim("shared")
	withinSLO := func(p99 time.Duration) bool {
		return p99 > 0 && p99 <= cfg.SLO && float64(p99) <= 1.25*float64(res.QuietP99)
	}
	res.IsolationMeetsSLO = withinSLO(res.IsolatedP99)
	res.BaselineViolates = !withinSLO(res.ExposedP99)

	servedA := float64(fair.Tenant("a").Served)
	servedB := float64(fair.Tenant("b").Served)
	res.ShareA = ratio(servedA, servedA+servedB)
	wantA := float64(cfg.WeightA) / float64(cfg.WeightA+cfg.WeightB)
	res.ShareErr = res.ShareA - wantA
	if res.ShareErr < 0 {
		res.ShareErr = -res.ShareErr
	}
	return res, nil
}

// runTenantArm drives one scheduler-fronted instance with per-tenant
// Poisson arrival streams for the given horizon. shared collapses every
// tenant into one lazily-created queue — the no-scheduler baseline.
func runTenantArm(cfg TenantCmpConfig, name string, offered map[string]workload.RateSchedule, horizon time.Duration, shared bool) (*TenantArm, error) {
	eng := sim.NewEngine()
	scfg := sched.Config{
		Tenants: []sched.TenantConfig{
			{Name: "a", Weight: cfg.WeightA},
			{Name: "b", Weight: cfg.WeightB},
		},
		MaxBatch:   cfg.MaxBatch,
		FlushEvery: cfg.FlushEvery,
		MaxQueue:   cfg.MaxQueue,
	}
	if shared {
		scfg.Tenants = nil
	}
	in, err := sim.NewSchedInstance(eng, cfg.Device, cfg.Model,
		model.Config{CatalogSize: cfg.Catalog, Seed: cfg.Seed}, cfg.JIT, scfg)
	if err != nil {
		return nil, err
	}
	tr := trace.New(trace.Options{Clock: eng.Now})
	in.SetTracer(tr)

	arm := &TenantArm{Arm: name}
	type tally struct {
		sent, served, shed, expired int
		lat                         *metrics.Histogram
	}
	tallies := map[string]*tally{}
	tenants := make([]string, 0, len(offered))
	for t := range offered {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	seed := cfg.Seed
	for _, tenant := range tenants {
		seed++
		times, err := workload.Times(offered[tenant], seed, horizon)
		if err != nil {
			return nil, err
		}
		ta := &tally{lat: metrics.NewHistogram()}
		tallies[tenant] = ta
		queue := tenant
		if shared {
			queue = "shared"
		}
		for _, at := range times {
			ta.sent++
			eng.Schedule(at, func() {
				in.SubmitTenant(queue, 10, 0, func(o sim.Outcome) {
					switch o.Err {
					case nil:
						ta.served++
						ta.lat.Record(o.Latency)
					case sim.ErrShed:
						ta.shed++
					default:
						ta.expired++
					}
				})
			})
		}
	}
	eng.Drain()

	weights := map[string]int{"a": cfg.WeightA, "b": cfg.WeightB}
	for _, tenant := range tenants {
		ta := tallies[tenant]
		arm.Tenants = append(arm.Tenants, TenantRow{
			Tenant: tenant, Weight: weights[tenant],
			Sent: ta.sent, Served: ta.served, Shed: ta.shed, Expired: ta.expired,
			Latency: ta.lat.Snapshot(),
		})
	}
	arm.Flushes = in.Flushes()
	arm.SchedWait = tr.StageSnapshot(trace.StageSchedWait)
	return arm, nil
}

// Render prints the four arms and the headline verdicts.
func (r *TenantCmpResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tenant — SLO isolation under a flash crowd (%s on %s, C=%d, SLO p99 ≤ %v)\n",
		r.Model, r.Device, r.Catalog, r.SLO)
	fmt.Fprintf(&b, "tenant A floods 5×; tenant B's served p99: quiet %v → WDRR %v → shared queue %v\n\n",
		r.QuietP99.Round(time.Microsecond), r.IsolatedP99.Round(time.Microsecond), r.ExposedP99.Round(time.Microsecond))
	for _, arm := range r.Arms {
		fmt.Fprintf(&b, "%s (batches %d, sched-wait p99 %v):\n", arm.Arm, arm.Flushes, arm.SchedWait.P99.Round(time.Microsecond))
		fmt.Fprintf(&b, "  %-8s %6s %6s %6s %6s %8s %12s %12s %8s\n",
			"tenant", "weight", "sent", "served", "shed", "expired", "p50", "p99", "goodput")
		for _, t := range arm.Tenants {
			fmt.Fprintf(&b, "  %-8s %6d %6d %6d %6d %8d %12s %12s %7.1f%%\n",
				t.Tenant, t.Weight, t.Sent, t.Served, t.Shed, t.Expired,
				t.Latency.P50.Round(time.Microsecond), t.Latency.P99.Round(time.Microsecond),
				100*t.GoodputFraction())
		}
	}
	fmt.Fprintf(&b, "\nisolation meets SLO: %v; shared baseline violates: %v; served share A %.3f (err %.3f)\n",
		r.IsolationMeetsSLO, r.BaselineViolates, r.ShareA, r.ShareErr)
	return b.String()
}

// Metrics emits, per arm and tenant, the served-latency summary and the
// admission counters, the sched-wait stage distribution (with a `stage=`
// marker for drift attribution), and the headline isolation/fairness
// verdicts.
func (r *TenantCmpResult) Metrics() map[string]float64 {
	m := map[string]float64{
		"slo_ms": msF(r.SLO),
	}
	for _, arm := range r.Arms {
		pre := keyify(arm.Arm)
		for _, t := range arm.Tenants {
			tpre := pre + "/tenant=" + keyify(t.Tenant)
			putSnap(m, tpre+"/latency", t.Latency)
			m[tpre+"/sent"] = float64(t.Sent)
			m[tpre+"/served"] = float64(t.Served)
			m[tpre+"/shed"] = float64(t.Shed)
			m[tpre+"/deadline_miss"] = float64(t.Expired)
			m[tpre+"/goodput_fraction"] = t.GoodputFraction()
		}
		m[pre+"/flushes"] = float64(arm.Flushes)
		if arm.SchedWait.Count > 0 {
			spre := pre + "/stage=sched-wait"
			m[spre+"/p50_ms"] = msF(arm.SchedWait.P50)
			m[spre+"/p99_ms"] = msF(arm.SchedWait.P99)
		}
	}
	m["wdrr/isolation_meets_slo"] = boolMetric(r.IsolationMeetsSLO)
	m["shared/baseline_violates"] = boolMetric(r.BaselineViolates)
	m["wdrr/victim_p99_ratio"] = ratio(float64(r.IsolatedP99), float64(r.QuietP99))
	m["shared/victim_p99_ratio"] = ratio(float64(r.ExposedP99), float64(r.QuietP99))
	m["fairness/share_a"] = r.ShareA
	m["fairness/share_err"] = r.ShareErr
	return m
}
