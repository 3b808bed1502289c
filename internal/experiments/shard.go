package experiments

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"time"

	"etude/internal/chaos"
	"etude/internal/costmodel"
	"etude/internal/device"
	"etude/internal/metrics"
	"etude/internal/model"
	"etude/internal/shard"
	"etude/internal/sim"
)

// ShardConfig controls the catalog-sharding study: an exactness check of
// the live scatter-gather tier, a simulated shard-count sweep over large
// catalogs, a tail-latency hedging comparison under a slow-shard fault, and
// the sharded deployment options the cost model derives.
type ShardConfig struct {
	// Device is the shard workers' instance type (default CPU).
	Device device.Spec
	// Model names the session encoder (default gru4rec).
	Model string
	// Catalogs are the catalog sizes of the sim sweep, ascending; the last
	// (largest) one also hosts the hedging and cost-model phases.
	Catalogs []int
	// ShardCounts is the swept S, ascending (default 1, 2, 4, 8).
	ShardCounts []int
	// LiveCatalog sizes the in-process exactness check (default 2,000 —
	// large enough for score ties, small enough to run everywhere).
	LiveCatalog int
	// LiveSessions is how many random sessions the exactness check replays
	// per shard count (default 25).
	LiveSessions int
	// Requests and Gap shape each sim arm: Requests arrivals spaced Gap
	// apart — wide enough that queueing never builds, so the latency
	// distribution isolates scatter, service and merge.
	Requests int
	Gap      time.Duration
	// SessionLen is the session length of every simulated request.
	SessionLen int
	// Replicas is the per-shard group size of the hedging phase (≥2 so a
	// backup has somewhere to go).
	Replicas int
	// SlowFactor is the slow-shard fault's service-time multiplier.
	SlowFactor float64
	// Rate is the deployment scenario's target throughput for the cost rows.
	Rate float64
	// Seed drives the exactness check's session sampling.
	Seed int64
}

// DefaultShardConfig returns the paper-scale study: gru4rec on CPUs over
// 1M- and 10M-item catalogs, S ∈ {1, 2, 4, 8}, 2 replicas per shard group
// and a 10× slow shard for the hedging comparison.
func DefaultShardConfig() ShardConfig {
	return ShardConfig{
		Device:       device.CPU(),
		Model:        "gru4rec",
		Catalogs:     []int{1_000_000, 10_000_000},
		ShardCounts:  []int{1, 2, 4, 8},
		LiveCatalog:  2_000,
		LiveSessions: 25,
		Requests:     300,
		Gap:          80 * time.Millisecond,
		SessionLen:   40,
		Replicas:     2,
		SlowFactor:   10,
		Rate:         500,
		Seed:         1,
	}
}

// ShardIdentityRow is one shard count's live exactness outcome.
type ShardIdentityRow struct {
	Shards    int  `json:"shards"`
	Sessions  int  `json:"sessions"`
	Identical bool `json:"identical"`
}

// ShardSweepRow is one (catalog, shard count) cell of the sim sweep.
type ShardSweepRow struct {
	Catalog int `json:"catalog"`
	Shards  int `json:"shards"`
	// Wait summarises the scatter→gather wait — the sharded MIPS portion of
	// the request, the term that divides by S.
	Wait metrics.Snapshot `json:"wait"`
	// Total summarises end-to-end latency (encoder + scatter + merge incl.).
	Total metrics.Snapshot `json:"total"`
	// Speedup is p50 wait at S=1 over p50 wait at this S, same catalog.
	Speedup float64 `json:"speedup"`
}

// ShardHedgeRow is one arm of the slow-shard comparison.
type ShardHedgeRow struct {
	Arm       string           `json:"arm"`
	Latency   metrics.Snapshot `json:"latency"`
	Sent      int64            `json:"hedges_sent"`
	Wins      int64            `json:"hedge_wins"`
	Cancelled int64            `json:"hedge_cancelled"`
}

// ShardCostRow is one shard count's deployment option for the largest
// catalog at the configured rate.
type ShardCostRow struct {
	Shards int              `json:"shards"`
	Option costmodel.Option `json:"option"`
}

// ShardResult aggregates the four phases.
type ShardResult struct {
	Model    string             `json:"model"`
	Device   string             `json:"device"`
	Identity []ShardIdentityRow `json:"identity"`
	Sweep    []ShardSweepRow    `json:"sweep"`
	// HedgeCatalog and HedgeShards locate the hedging comparison.
	HedgeCatalog int             `json:"hedge_catalog"`
	HedgeShards  int             `json:"hedge_shards"`
	SlowFactor   float64         `json:"slow_factor"`
	Hedge        []ShardHedgeRow `json:"hedge"`
	CostRate     float64         `json:"cost_rate"`
	Costs        []ShardCostRow  `json:"costs"`
}

// Shard runs the catalog-sharding study. Simulated phases are deterministic
// (virtual time); the live phase is exact-match, so the whole result is
// reproducible.
func Shard(cfg ShardConfig) (*ShardResult, error) {
	if cfg.Model == "" || len(cfg.Catalogs) == 0 || len(cfg.ShardCounts) == 0 {
		return nil, fmt.Errorf("experiments: invalid shard config %+v", cfg)
	}
	res := &ShardResult{Model: cfg.Model, Device: cfg.Device.Name, CostRate: cfg.Rate}

	identity, err := shardIdentity(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: shard identity: %w", err)
	}
	res.Identity = identity

	for _, catalog := range cfg.Catalogs {
		var base time.Duration
		for _, s := range cfg.ShardCounts {
			wait, total, _, err := runShardSimArm(cfg, catalog, s, 1, false, 0)
			if err != nil {
				return nil, fmt.Errorf("experiments: shard sweep C=%d S=%d: %w", catalog, s, err)
			}
			if base == 0 {
				base = wait.P50
			}
			speedup := 0.0
			if wait.P50 > 0 {
				speedup = float64(base) / float64(wait.P50)
			}
			res.Sweep = append(res.Sweep, ShardSweepRow{
				Catalog: catalog, Shards: s, Wait: wait, Total: total, Speedup: speedup,
			})
		}
	}

	res.HedgeCatalog = cfg.Catalogs[len(cfg.Catalogs)-1]
	res.HedgeShards = cfg.ShardCounts[len(cfg.ShardCounts)-1]
	res.SlowFactor = cfg.SlowFactor
	for _, arm := range []struct {
		name  string
		slow  bool
		hedge bool
	}{
		{"fault-free", false, false},
		{"slow-shard unhedged", true, false},
		{"slow-shard hedged", true, true},
	} {
		factor := 0.0
		if arm.slow {
			factor = cfg.SlowFactor
		}
		_, total, fleet, err := runShardSimArm(cfg, res.HedgeCatalog, res.HedgeShards, cfg.Replicas, arm.hedge, factor)
		if err != nil {
			return nil, fmt.Errorf("experiments: shard hedging arm %s: %w", arm.name, err)
		}
		res.Hedge = append(res.Hedge, ShardHedgeRow{
			Arm: arm.name, Latency: total,
			Sent: fleet.Stats().Sent(), Wins: fleet.Stats().Wins(), Cancelled: fleet.Stats().Cancelled(),
		})
	}

	sc := costmodel.Scenario{Name: "sharded", CatalogSize: res.HedgeCatalog, TargetRate: cfg.Rate}
	for _, s := range cfg.ShardCounts {
		capacity, err := shardedCapacity(cfg, res.HedgeCatalog, s)
		if err != nil {
			return nil, fmt.Errorf("experiments: sharded capacity S=%d: %w", s, err)
		}
		res.Costs = append(res.Costs, ShardCostRow{
			Shards: s,
			Option: costmodel.PlanSharded(cfg.Device, capacity, sc, s),
		})
	}
	return res, nil
}

// shardIdentity verifies the live in-process tier bit for bit: for every
// shard count, Pool's scatter-gather result must equal the unsharded model's
// — same items, same scores, same order, ties included.
func shardIdentity(cfg ShardConfig) ([]ShardIdentityRow, error) {
	m, err := model.New(cfg.Model, model.Config{CatalogSize: cfg.LiveCatalog, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	enc, ok := m.(model.Encoder)
	if !ok {
		return nil, fmt.Errorf("model %s has no encoder/MIPS decomposition", cfg.Model)
	}
	k := enc.Config().TopK
	rows := make([]ShardIdentityRow, 0, len(cfg.ShardCounts))
	for _, s := range cfg.ShardCounts {
		pool, err := shard.NewPool(enc.ItemEmbeddings(), s)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		identical := true
		for i := 0; i < cfg.LiveSessions; i++ {
			session := make([]int64, 1+rng.Intn(20))
			for j := range session {
				session[j] = int64(rng.Intn(cfg.LiveCatalog))
			}
			if !reflect.DeepEqual(pool.TopK(enc.Encode(session), k), m.Recommend(session)) {
				identical = false
				break
			}
		}
		rows = append(rows, ShardIdentityRow{Shards: s, Sessions: cfg.LiveSessions, Identical: identical})
	}
	return rows, nil
}

// runShardSimArm drives one deterministic arm: a Shards×Replicas fleet,
// cfg.Requests arrivals spaced cfg.Gap apart, optionally with pod 0 (shard
// 0, replica 0) slowed by slowFactor for the whole run via the chaos
// injector. Returns the wait and end-to-end latency summaries plus the
// fleet for hedge-counter inspection.
func runShardSimArm(cfg ShardConfig, catalog, shards, replicas int, hedge bool, slowFactor float64) (metrics.Snapshot, metrics.Snapshot, *shard.SimFleet, error) {
	eng := sim.NewEngine()
	fleet, err := shard.NewSimFleet(eng, shard.SimConfig{
		Device:   cfg.Device,
		Model:    cfg.Model,
		ModelCfg: model.Config{CatalogSize: catalog, Seed: cfg.Seed},
		Shards:   shards,
		Replicas: replicas,
		Hedge:    shard.HedgeConfig{Enabled: hedge},
	})
	if err != nil {
		return metrics.Snapshot{}, metrics.Snapshot{}, nil, err
	}
	if slowFactor > 1 {
		runLen := time.Duration(cfg.Requests) * cfg.Gap
		inj := chaos.NewInjector(chaos.SlowShard(runLen, 0, slowFactor))
		if err := inj.Arm(eng, fleet.Instances()); err != nil {
			return metrics.Snapshot{}, metrics.Snapshot{}, nil, err
		}
	}
	totals := metrics.NewHistogram()
	var firstErr error
	for i := 0; i < cfg.Requests; i++ {
		eng.Schedule(time.Duration(i)*cfg.Gap, func() {
			fleet.Submit(cfg.SessionLen, func(o sim.Outcome) {
				if o.Err != nil {
					if firstErr == nil {
						firstErr = o.Err
					}
					return
				}
				totals.Record(o.Latency)
			})
		})
	}
	eng.Drain()
	if firstErr != nil {
		return metrics.Snapshot{}, metrics.Snapshot{}, nil, firstErr
	}
	return fleet.WaitSnapshot(), totals.Snapshot(), fleet, nil
}

// shardedCapacity bisects one shard worker's sustainable throughput under
// the latency SLO — sim.Capacity's search, run against an instance serving
// the per-shard slice of the model's cost table.
func shardedCapacity(cfg ShardConfig, catalog, shards int) (float64, error) {
	mcfg := model.Config{CatalogSize: catalog, Seed: cfg.Seed, MaxSessionLen: 50}
	costs := make([]model.Cost, mcfg.MaxSessionLen+1)
	for l := 1; l < len(costs); l++ {
		c, err := model.EstimateCost(cfg.Model, mcfg, l)
		if err != nil {
			return 0, err
		}
		costs[l] = shard.SliceCost(c, shards)
	}
	feasibleAt := func(rate float64) (bool, error) {
		eng := sim.NewEngine()
		in, err := sim.NewInstanceFromCosts(eng, cfg.Device, costs, true, 2*time.Millisecond, cfg.Device.MaxBatch)
		if err != nil {
			return false, err
		}
		if !in.Fits() {
			return false, nil
		}
		res, err := sim.RunBenchmark(eng, sim.LoadConfig{
			TargetRate: rate, Duration: 10 * time.Second, NoRamp: true, Seed: 1,
		}, []*sim.Instance{in})
		if err != nil {
			return false, err
		}
		return res.Meets(costmodel.LatencySLO), nil
	}
	lo, hi := 1.0, 8000.0
	if ok, err := feasibleAt(lo); err != nil || !ok {
		return 0, err
	}
	for i := 0; i < 20 && hi-lo > 1; i++ {
		mid := (lo + hi) / 2
		ok, err := feasibleAt(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// Render prints the four phases as one report.
func (r *ShardResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Shard — catalog-sharded scatter-gather retrieval (%s on %s, sim + live)\n\n", r.Model, r.Device)

	fmt.Fprintf(&b, "live exactness (in-process pool vs unsharded model):\n")
	for _, row := range r.Identity {
		verdict := "IDENTICAL"
		if !row.Identical {
			verdict = "DIVERGED"
		}
		fmt.Fprintf(&b, "  S=%d: %s over %d sessions\n", row.Shards, verdict, row.Sessions)
	}

	fmt.Fprintf(&b, "\nsim sweep — scatter→gather wait (the sharded MIPS term) and end-to-end latency:\n")
	fmt.Fprintf(&b, "  %-12s %4s %12s %12s %12s %9s\n", "catalog", "S", "p50 wait", "p99 wait", "p50 total", "speedup")
	for _, row := range r.Sweep {
		fmt.Fprintf(&b, "  %-12d %4d %12s %12s %12s %8.2f×\n",
			row.Catalog, row.Shards,
			row.Wait.P50.Round(time.Microsecond), row.Wait.P99.Round(time.Microsecond),
			row.Total.P50.Round(time.Microsecond), row.Speedup)
	}

	fmt.Fprintf(&b, "\nhedging under a %.0f× slow-shard fault (C=%d, S=%d):\n", r.SlowFactor, r.HedgeCatalog, r.HedgeShards)
	fmt.Fprintf(&b, "  %-22s %12s %12s %8s %8s %10s\n", "arm", "p50", "p99", "sent", "wins", "cancelled")
	for _, row := range r.Hedge {
		fmt.Fprintf(&b, "  %-22s %12s %12s %8d %8d %10d\n",
			row.Arm, row.Latency.P50.Round(time.Microsecond), row.Latency.P99.Round(time.Microsecond),
			row.Sent, row.Wins, row.Cancelled)
	}

	fmt.Fprintf(&b, "\ndeployment options (C=%d at %.0f req/s, %v SLO):\n", r.HedgeCatalog, r.CostRate, costmodel.LatencySLO)
	for _, row := range r.Costs {
		fmt.Fprintf(&b, "  S=%d: %s\n", row.Shards, row.Option)
	}
	return b.String()
}

// Metrics emits the sharding study: live-tier exactness, the simulated
// shard-count sweep (wait and end-to-end latency plus the headline
// speedups), the hedging arms and the cost frontier.
func (r *ShardResult) Metrics() map[string]float64 {
	m := map[string]float64{}
	for _, row := range r.Identity {
		m[fmt.Sprintf("identity/s%d/identical", row.Shards)] = boolMetric(row.Identical)
	}
	for _, row := range r.Sweep {
		pre := fmt.Sprintf("sweep/c%d/s%d", row.Catalog, row.Shards)
		putSnap(m, pre+"/wait", row.Wait)
		putSnap(m, pre+"/total", row.Total)
		m[pre+"/speedup"] = row.Speedup
	}
	for _, row := range r.Hedge {
		pre := "hedge/" + keyify(row.Arm)
		putSnap(m, pre+"/latency", row.Latency)
		m[pre+"/hedges_sent"] = float64(row.Sent)
		m[pre+"/hedge_wins"] = float64(row.Wins)
	}
	for _, row := range r.Costs {
		if row.Option.Feasible {
			m[fmt.Sprintf("cost/s%d/monthly_usd", row.Shards)] = row.Option.MonthlyUSD
		}
	}
	return m
}
