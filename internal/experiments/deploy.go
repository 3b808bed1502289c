package experiments

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"etude/internal/chaos"
	"etude/internal/cluster"
	"etude/internal/deploy"
	"etude/internal/httpapi"
	"etude/internal/loadgen"
	"etude/internal/metrics"
	"etude/internal/model"
	"etude/internal/server"
	"etude/internal/workload"
)

// DeployStudyConfig controls the crash-safe release study: a fleet serving
// a promoted release under sustained load takes three candidate releases
// through the SLO-guarded canary controller — a good re-train that must
// promote, an organically slower one that must roll back, and a corrupted
// one that must quarantine without serving a byte.
type DeployStudyConfig struct {
	// Model and CatalogSize define the baseline release; the regressing
	// candidate multiplies the catalog by RegressFactor (MIPS scoring is
	// O(C), so the slowdown is organic — no artificial sleeps).
	Model         string
	CatalogSize   int
	RegressFactor int
	// Replicas sizes the fleet; CanaryPods the slice pinned to candidates.
	Replicas   int
	CanaryPods int
	// TargetRate and Duration shape the sustained load; Tick is the
	// generator quantum, Timeout the client deadline.
	TargetRate float64
	Duration   time.Duration
	Tick       time.Duration
	Timeout    time.Duration
	// RolloutAfter is when the canary rollout starts — late enough that the
	// baseline cohort has accumulated comparison samples.
	RolloutAfter time.Duration
	// Observe and RolloutTimeout tune the canary controller's loop.
	Observe        time.Duration
	RolloutTimeout time.Duration
	// Thresholds are the SLO guardrails (zero fields take the defaults).
	Thresholds deploy.Thresholds
	// AlphaLength and AlphaClicks shape the synthetic sessions.
	AlphaLength float64
	AlphaClicks float64
	// Seed drives workload sampling and release weights.
	Seed int64
	// Backend selects the pod substrate ("inproc" or "proc"); ServerBin is
	// the etude-server binary for the proc backend (empty builds one).
	Backend   string
	ServerBin string
}

// DefaultDeployStudyConfig returns the standard study: gru4rec at C=10k on
// three replicas under 150 req/s, one canary pod, the rollout firing 1s in.
func DefaultDeployStudyConfig() DeployStudyConfig {
	return DeployStudyConfig{
		Model:          "gru4rec",
		CatalogSize:    10_000,
		RegressFactor:  32,
		Replicas:       3,
		CanaryPods:     1,
		TargetRate:     150,
		Duration:       6 * time.Second,
		Tick:           500 * time.Millisecond,
		Timeout:        time.Second,
		RolloutAfter:   time.Second,
		Observe:        50 * time.Millisecond,
		RolloutTimeout: 20 * time.Second,
		Thresholds:     deploy.Thresholds{MinSamples: 10},
		AlphaLength:    2.2,
		AlphaClicks:    1.6,
		Seed:           1,
	}
}

// DeployRow is one arm's outcome.
type DeployRow struct {
	Arm string `json:"arm"`
	// CandidateVersion and BaselineVersion identify the releases.
	CandidateVersion int `json:"candidate_version"`
	BaselineVersion  int `json:"baseline_version"`
	// Sent/Errors/ErrorRate/Latency summarise the client's view of the
	// whole run, rollout included.
	Sent      int64            `json:"sent"`
	Errors    int64            `json:"errors"`
	ErrorRate float64          `json:"error_rate"`
	Latency   metrics.Snapshot `json:"latency"`
	// Promoted/RolledBack/Quarantined is the controller's verdict; Reason
	// explains it.
	Promoted    bool   `json:"promoted"`
	RolledBack  bool   `json:"rolled_back"`
	Quarantined bool   `json:"quarantined"`
	Reason      string `json:"reason"`
	// CanaryServed counts requests the candidate answered before the
	// verdict; BlastRadius divides by Sent — the fraction of the run's
	// traffic a bad release touched.
	CanaryServed int64   `json:"canary_served"`
	BlastRadius  float64 `json:"blast_radius"`
	// CanaryP99/BaselineP99 are the cohort latencies at verdict time.
	CanaryP99   time.Duration `json:"canary_p99"`
	BaselineP99 time.Duration `json:"baseline_p99"`
	// Decided is deploy-to-verdict time — for the rollback arm, the MTTR of
	// a bad release.
	Decided time.Duration `json:"decided"`
	// StallRatio is the worst per-tick client p99 over the median tick p99:
	// ~1 means the hot swap never stalled the request path (good arm).
	StallRatio float64 `json:"stall_ratio,omitempty"`
	// ReloadTime is a measured no-load hot swap on one pod: POST
	// /admin/deploy round-trip, which spans load+verify+swap (good arm).
	ReloadTime time.Duration `json:"reload_time,omitempty"`
	// VerifyFailures counts checksum rejections on the canary pod
	// (corrupted arm).
	VerifyFailures float64 `json:"verify_failures,omitempty"`
	// StoreQuarantined reports whether the release store blocks the
	// candidate from any future load (bad arms).
	StoreQuarantined bool `json:"store_quarantined,omitempty"`
}

// DeployResult holds the per-arm rows.
type DeployResult struct {
	Rows []DeployRow `json:"rows"`
}

// DeployStudy runs the three release arms, each against a fresh cluster so
// state cannot leak between them.
func DeployStudy(ctx context.Context, cfg DeployStudyConfig) (*DeployResult, error) {
	if cfg.Model == "" || cfg.CatalogSize <= 0 || cfg.Replicas <= cfg.CanaryPods {
		return nil, fmt.Errorf("experiments: invalid deploy config %+v", cfg)
	}
	if cfg.RegressFactor < 2 {
		cfg.RegressFactor = 2
	}
	res := &DeployResult{}
	for _, arm := range []string{"good", "regress", "corrupted"} {
		row, err := runDeployArm(ctx, cfg, arm)
		if err != nil {
			return nil, fmt.Errorf("experiments: deploy arm %s: %w", arm, err)
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

// publishStudyRelease stages one release in the store. Catalog size is the
// latency knob; the seed offset makes each candidate a genuine re-train.
func publishStudyRelease(store *deploy.Store, cfg DeployStudyConfig, catalog int, rev int64) (deploy.Release, error) {
	mcfg := model.Config{CatalogSize: catalog, Seed: cfg.Seed + rev}
	m, err := model.New(cfg.Model, mcfg)
	if err != nil {
		return deploy.Release{}, err
	}
	weights, err := model.SaveWeights(m)
	if err != nil {
		return deploy.Release{}, err
	}
	return store.Publish(model.Manifest{Model: cfg.Model, Config: mcfg}, weights, fmt.Sprintf("rev %d", rev))
}

func runDeployArm(ctx context.Context, cfg DeployStudyConfig, arm string) (*DeployRow, error) {
	c, bucket, cleanup, err := provisionCluster(cfg.Backend, cfg.ServerBin)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	store := deploy.NewStore(bucket)
	base, err := publishStudyRelease(store, cfg, cfg.CatalogSize, 1)
	if err != nil {
		return nil, err
	}
	if err := store.Promote(base.Version); err != nil {
		return nil, err
	}
	svc, err := c.Deploy(ctx, "deploy", cluster.PodSpec{
		Runtime:  cluster.RuntimeEtude,
		Releases: true,
		Server:   server.Options{Workers: 2},
	}, cfg.Replicas)
	if err != nil {
		return nil, err
	}

	catalog := cfg.CatalogSize
	if arm == "regress" {
		catalog *= cfg.RegressFactor
	}
	cand, err := publishStudyRelease(store, cfg, catalog, 2)
	if err != nil {
		return nil, err
	}
	row := &DeployRow{Arm: arm, CandidateVersion: cand.Version, BaselineVersion: base.Version}

	if arm == "corrupted" {
		// The corruption is delivered through the chaos driver — the same
		// storage-plane fault path real-process fleets get — and must land
		// before the canary tries the release.
		driver := chaos.NewProcDriver(
			chaos.CorruptedPublish(cand.Artifacts[0].Key, chaos.CorruptBitflip, 0), nil,
		).SetBucket(bucket)
		driver.Start()
		defer driver.Stop()
		deadline := time.Now().Add(5 * time.Second)
		for store.Verify(cand) == nil {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("artifact corruption never landed")
			}
			time.Sleep(time.Millisecond)
		}
	}

	// The canary rollout fires mid-run, concurrently with the load.
	cc := cluster.NewCanaryController(store)
	type opResult struct {
		out cluster.CanaryOutcome
		err error
	}
	opCh := make(chan opResult, 1)
	go func() {
		time.Sleep(cfg.RolloutAfter)
		out, err := cc.Rollout(ctx, svc, cand.Version, cluster.CanaryConfig{
			CanaryPods: cfg.CanaryPods,
			Observe:    cfg.Observe,
			Timeout:    cfg.RolloutTimeout,
			Thresholds: cfg.Thresholds,
		})
		opCh <- opResult{out, err}
	}()

	gen, err := workload.NewGenerator(workload.Spec{
		CatalogSize: cfg.CatalogSize,
		NumClicks:   1,
		AlphaLength: cfg.AlphaLength,
		AlphaClicks: cfg.AlphaClicks,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	balancer := svc.Balancer(cluster.BalancerConfig{
		FailThreshold: 3,
		ProbeInterval: 25 * time.Millisecond,
	})
	// No retries: a request dropped by a swap would stay visible — the good
	// arm's zero is a zero of raw attempts.
	out, err := loadgen.Run(ctx, loadgen.Config{
		TargetRate:     cfg.TargetRate,
		Duration:       cfg.Duration,
		Tick:           cfg.Tick,
		RequestTimeout: cfg.Timeout,
	}, gen, balancer)
	if err != nil {
		return nil, err
	}
	op := <-opCh
	if op.err != nil {
		return nil, fmt.Errorf("canary rollout: %w", op.err)
	}

	row.Sent = out.Recorder.Sent()
	row.Errors = out.Recorder.Errors()
	row.Latency = out.Recorder.Overall()
	if row.Sent > 0 {
		row.ErrorRate = float64(row.Errors) / float64(row.Sent)
		row.BlastRadius = float64(op.out.CanaryServed) / float64(row.Sent)
	}
	row.Promoted = op.out.Promoted
	row.RolledBack = op.out.RolledBack
	row.Quarantined = op.out.Quarantined
	row.Reason = op.out.Reason
	row.CanaryServed = op.out.CanaryServed
	row.CanaryP99, row.BaselineP99 = op.out.CanaryP99, op.out.BaselineP99
	row.Decided = op.out.Decided
	_, row.StoreQuarantined = store.QuarantineReason(cand.Version)

	switch arm {
	case "good":
		row.StallRatio = stallRatio(out.Recorder)
		// A clean hot swap measured in isolation: publish one more
		// re-train and time the synchronous load+verify+swap round-trip on
		// one pod (the run is over; the fleet serves no traffic).
		probe, err := publishStudyRelease(store, cfg, cfg.CatalogSize, 3)
		if err == nil {
			start := time.Now()
			if code, perr := postAdminDeploy(ctx, svc.Pods()[0].URL(), probe.Version); perr == nil && code == http.StatusOK {
				row.ReloadTime = time.Since(start)
			}
		}
	case "corrupted":
		// The canary pod must have refused the release at the checksum, and
		// its refusal is what quarantined the release for everyone else.
		row.VerifyFailures = scrapeVerifyFailures(svc.Pods()[0].URL())
	}
	return row, nil
}

// stallRatio is the worst per-tick client p99 divided by the median tick
// p99 — a hot swap that stalled the request path shows up as an outlier
// tick.
func stallRatio(rec *metrics.Recorder) float64 {
	var p99s []time.Duration
	for _, ts := range rec.Series() {
		if ts.Completed > 0 {
			p99s = append(p99s, ts.P99)
		}
	}
	if len(p99s) == 0 {
		return 0
	}
	worst, sorted := p99s[0], append([]time.Duration(nil), p99s...)
	for _, p := range p99s {
		if p > worst {
			worst = p
		}
	}
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	median := sorted[len(sorted)/2]
	if median <= 0 {
		return 0
	}
	return float64(worst) / float64(median)
}

// postAdminDeploy mirrors the canary controller's pod deploy call for the
// experiment's own reload-time probe.
func postAdminDeploy(ctx context.Context, podURL string, version int) (int, error) {
	body := strings.NewReader(fmt.Sprintf(`{"version":%d}`, version))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, podURL+httpapi.DeployPath, body)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

// scrapeVerifyFailures reads one pod's checksum-rejection counter; 0 on any
// scrape error (the metric assertion then fails loudly downstream).
func scrapeVerifyFailures(podURL string) float64 {
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get(podURL + httpapi.MetricsPath)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	samples, err := metrics.ParsePromText(resp.Body)
	if err != nil {
		return 0
	}
	for _, s := range samples {
		if s.Name == "etude_artifact_verify_failures_total" {
			return s.Value
		}
	}
	return 0
}

// Render prints the per-arm release-safety table.
func (r *DeployResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Deploy — versioned releases under SLO-guarded canary (live, seeded)\n")
	fmt.Fprintf(&b, "%-10s %9s %8s %7s %8s %10s %8s %9s %10s %10s\n",
		"arm", "verdict", "sent", "errors", "err%", "blast%", "decided", "canary", "c-p99", "b-p99")
	for _, row := range r.Rows {
		verdict := "promote"
		switch {
		case row.RolledBack:
			verdict = "rollback"
		case row.Quarantined:
			verdict = "quarantine"
		}
		fmt.Fprintf(&b, "%-10s %9s %8d %7d %7.2f%% %9.2f%% %8s %9d %10s %10s\n",
			row.Arm, verdict, row.Sent, row.Errors, row.ErrorRate*100,
			row.BlastRadius*100, row.Decided.Round(time.Millisecond),
			row.CanaryServed,
			row.CanaryP99.Round(time.Microsecond), row.BaselineP99.Round(time.Microsecond))
	}
	for _, row := range r.Rows {
		switch row.Arm {
		case "good":
			fmt.Fprintf(&b, "good: stall-ratio=%.2f reload=%s (%s)\n",
				row.StallRatio, row.ReloadTime.Round(time.Millisecond), row.Reason)
		case "regress":
			fmt.Fprintf(&b, "regress: quarantined=%v store-quarantined=%v (%s)\n",
				row.Quarantined || row.RolledBack, row.StoreQuarantined, row.Reason)
		case "corrupted":
			fmt.Fprintf(&b, "corrupted: served=%d verify-failures=%s store-quarantined=%v (%s)\n",
				row.CanaryServed, strconv.FormatFloat(row.VerifyFailures, 'f', -1, 64),
				row.StoreQuarantined, row.Reason)
		}
	}
	return b.String()
}

// Metrics emits per-arm release-safety results. Deploy drives a wall-clock
// cluster, so cross-machine gating keys off the dimensionless metrics; the
// booleans (promoted, rolled_back, quarantined) are the headline gates.
func (r *DeployResult) Metrics() map[string]float64 {
	m := map[string]float64{}
	for _, row := range r.Rows {
		pre := keyify(row.Arm)
		putSnap(m, pre+"/latency", row.Latency)
		m[pre+"/error_rate"] = row.ErrorRate
		m[pre+"/decided_ms"] = msF(row.Decided)
		switch row.Arm {
		case "good":
			m[pre+"/promoted"] = boolMetric(row.Promoted)
			m[pre+"/dropped_fraction"] = row.ErrorRate
			m[pre+"/stall_ratio"] = row.StallRatio
			m[pre+"/reload_ms"] = msF(row.ReloadTime)
		case "regress":
			m[pre+"/rolled_back"] = boolMetric(row.RolledBack)
			m[pre+"/quarantined"] = boolMetric(row.StoreQuarantined)
			m[pre+"/blast_radius"] = row.BlastRadius
			m[pre+"/rollback_mttr_ms"] = msF(row.Decided)
		case "corrupted":
			m[pre+"/quarantined"] = boolMetric(row.Quarantined && row.StoreQuarantined)
			m[pre+"/bad_serve_fraction"] = row.BlastRadius
			m[pre+"/verify_failures"] = row.VerifyFailures
		}
	}
	return m
}
