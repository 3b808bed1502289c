package chaos_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"etude/internal/chaos"
	"etude/internal/cluster"
	"etude/internal/device"
	"etude/internal/httpapi"
	"etude/internal/leakcheck"
	"etude/internal/model"
	"etude/internal/shard"
	"etude/internal/sim"
)

// runBlackoutArm drives one arm of the shard-blackout experiment: a 4-shard,
// 2-replica simulated fleet where every replica of shard group 1 dies at
// mid-run and never restarts. Outcomes are indexed by request number so the
// pre/post-blackout phases can be judged separately.
func runBlackoutArm(t *testing.T, sc *chaos.Scenario, pol shard.Policy) ([]sim.Outcome, *shard.SimFleet) {
	t.Helper()
	eng := sim.NewEngine()
	f, err := shard.NewSimFleet(eng, shard.SimConfig{
		Device:   device.CPU(),
		Model:    "gru4rec",
		ModelCfg: model.Config{CatalogSize: 1_000_000},
		Shards:   4,
		Replicas: 2,
		Policy:   pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sc != nil {
		if err := chaos.NewInjector(*sc).Arm(eng, f.Instances()); err != nil {
			t.Fatal(err)
		}
	}
	const n, gap = 300, 80 * time.Millisecond
	outs := make([]sim.Outcome, n)
	fired := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		eng.Schedule(time.Duration(i)*gap, func() {
			f.Submit(40, func(o sim.Outcome) {
				outs[i] = o
				fired[i] = true
			})
		})
	}
	eng.Drain()
	for i, ok := range fired {
		if !ok {
			t.Fatalf("request %d never completed", i)
		}
	}
	return outs, f
}

// The tentpole's availability claim, on the deterministic substrate: with
// one of four shard groups blacked out, the fail-fast arm's availability
// collapses to zero while the partial arm keeps answering every request at
// 3/4 coverage.
func TestShardBlackoutPartialArmSurvives(t *testing.T) {
	const n, gap = 300, 80 * time.Millisecond
	// Mid-gap placement: the boundary request is either cleanly before or
	// cleanly after the outage, and a small index margin absorbs the one
	// request whose scatter can be in flight on the dying group.
	at := 150*gap + gap/2
	sc := chaos.ShardBlackout(1, 2, at) // pods 2,3: both replicas of group 1
	if err := sc.Validate(8); err != nil {
		t.Fatal(err)
	}
	const pre, post = 148, 152

	ff, _ := runBlackoutArm(t, &sc, shard.Policy{Mode: shard.PolicyFailFast})
	pa, pf := runBlackoutArm(t, &sc, shard.Policy{Mode: shard.PolicyPartial, MinCoverage: 0.5})

	// Pre-blackout both arms are healthy and at full coverage.
	for i := 0; i < pre; i++ {
		if ff[i].Err != nil {
			t.Fatalf("fail-fast request %d failed pre-blackout: %v", i, ff[i].Err)
		}
		if pa[i].Err != nil || pa[i].Partial || pa[i].Coverage != 1 {
			t.Fatalf("partial-arm request %d pre-blackout = %+v, want full coverage", i, pa[i])
		}
	}
	// Post-blackout: fail-fast availability is ~0 — every request fans out
	// to the dead group.
	ffOK := 0
	for i := post; i < n; i++ {
		if ff[i].Err == nil {
			ffOK++
		}
	}
	if ffOK != 0 {
		t.Fatalf("fail-fast arm served %d/%d requests with a shard group down, want 0", ffOK, n-post)
	}
	// Post-blackout: the partial arm answers everything at 3/4 coverage.
	paOK := 0
	for i := post; i < n; i++ {
		if pa[i].Err != nil {
			continue
		}
		paOK++
		if !pa[i].Partial || pa[i].Coverage != 0.75 {
			t.Fatalf("partial-arm request %d post-blackout = %+v, want partial at coverage 0.75", i, pa[i])
		}
	}
	if avail := float64(paOK) / float64(n-post); avail < 0.99 {
		t.Fatalf("partial-arm post-blackout availability = %.4f, want >= 0.99", avail)
	}
	ps := pf.PartialStats()
	if ps.Partial() == 0 || ps.FloorFailures() != 0 {
		t.Fatalf("partial counters = partial %d / floor failures %d, want >0 / 0", ps.Partial(), ps.FloorFailures())
	}
	if ps.LastCoverage() != 0.75 {
		t.Fatalf("LastCoverage() = %v, want 0.75", ps.LastCoverage())
	}
}

// Below the floor even the partial arm must fail — losing 3 of 4 groups
// under a 0.5 coverage floor is an outage, not a degradation.
func TestShardBlackoutSimCoverageFloor(t *testing.T) {
	sc := chaos.Scenario{Name: "triple-blackout", Seed: 1, Faults: []chaos.Fault{
		{Kind: chaos.FaultAZOutage, At: 0, Pods: []int{2, 3, 4, 5, 6, 7}},
	}}
	if err := sc.Validate(8); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	f, err := shard.NewSimFleet(eng, shard.SimConfig{
		Device:   device.CPU(),
		Model:    "gru4rec",
		ModelCfg: model.Config{CatalogSize: 1_000_000},
		Shards:   4,
		Replicas: 2,
		Policy:   shard.Policy{Mode: shard.PolicyPartial, MinCoverage: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := chaos.NewInjector(sc).Arm(eng, f.Instances()); err != nil {
		t.Fatal(err)
	}
	const n = 5
	failures := 0
	for i := 0; i < n; i++ {
		eng.Schedule(time.Duration(i)*80*time.Millisecond, func() {
			f.Submit(40, func(o sim.Outcome) {
				var ce *shard.CoverageError
				if !errors.As(o.Err, &ce) {
					t.Errorf("outcome err = %v, want a CoverageError", o.Err)
					return
				}
				// The third miss puts the floor out of reach, so the gather
				// ends there, before shard 0 can answer — as the live
				// gateway does.
				if ce.Answered != 0 || ce.Min != 2 {
					t.Errorf("CoverageError = %+v, want 0 answered of floor 2", ce)
				}
				failures++
			})
		})
	}
	eng.Drain()
	if failures != n {
		t.Fatalf("floor failures = %d, want %d", failures, n)
	}
	if got := f.PartialStats().FloorFailures(); got != n {
		t.Fatalf("FloorFailures() = %d, want %d", got, n)
	}
}

func TestShardBlackoutScenarioShape(t *testing.T) {
	sc := chaos.ShardBlackout(1, 2, 5*time.Second)
	if sc.Name != "shard-blackout" || len(sc.Faults) != 1 {
		t.Fatalf("unexpected scenario %+v", sc)
	}
	f := sc.Faults[0]
	if f.Kind != chaos.FaultAZOutage || f.At != 5*time.Second || f.Duration != 0 {
		t.Fatalf("unexpected fault %+v", f)
	}
	if len(f.Pods) != 2 || f.Pods[0] != 2 || f.Pods[1] != 3 {
		t.Fatalf("pods = %v, want [2 3] (group 1 of a 2-replica fleet)", f.Pods)
	}
	if err := sc.Validate(8); err != nil {
		t.Fatal(err)
	}
	if err := sc.Validate(3); err == nil {
		t.Fatal("pod 3 must be rejected for a 3-pod fleet")
	}
}

// procSignalTarget adapts a ProcRunner pod set to the driver's SignalTarget:
// replica ordinal i is runner pod ids[i].
type procSignalTarget struct {
	r   *cluster.ProcRunner
	ids []int
}

func (p *procSignalTarget) SignalPod(replica int, sig string) error {
	if replica < 0 || replica >= len(p.ids) {
		return nil
	}
	return p.r.Signal(p.ids[replica], sig)
}

// The same blackout against real operating-system processes: four partition
// pods behind two gateway fronts, SIGKILL delivered to shard group 1 by the
// ProcDriver. The fail-fast front goes dark; the partial front keeps
// serving 200s stamped X-Degraded: partial / X-Coverage: 0.7500.
func TestShardBlackoutProcFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("process tests skipped in -short mode")
	}
	bin, err := cluster.ServerBinary()
	if err != nil {
		t.Fatalf("no etude-server binary: %v", err)
	}
	leakcheck.Check(t)
	leakcheck.NoChildProcs(t, "etude-server")

	r := cluster.NewProcRunner()
	defer r.Close()

	parts, err := shard.Plan(2_000, 4)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, len(parts))
	urls := make([]string, len(parts))
	for i, part := range parts {
		st, err := r.Spawn(cluster.ProcSpec{Bin: bin, Args: []string{
			"-model", "gru4rec", "-catalog", "2000", "-seed", "3",
			"-partition", fmt.Sprintf("%d:%d:%d", part.Index, part.From, part.To),
			"-drain-timeout", "2s", "-drain-settle", "10ms",
		}})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
		urls[i] = "http://" + st.Addr
	}
	for _, id := range ids {
		if !waitReady(r, id, 30*time.Second) {
			t.Fatalf("partition pod %d never became ready", id)
		}
	}

	groups := fmt.Sprintf("%s;%s;%s;%s", urls[0], urls[1], urls[2], urls[3])
	spawnGateway := func(extra ...string) string {
		t.Helper()
		args := append([]string{"-gateway", groups, "-drain-timeout", "2s", "-drain-settle", "10ms"}, extra...)
		st, err := r.Spawn(cluster.ProcSpec{Bin: bin, Args: args})
		if err != nil {
			t.Fatal(err)
		}
		if !waitReady(r, st.ID, 30*time.Second) {
			t.Fatalf("gateway pod %d never became ready", st.ID)
		}
		return "http://" + st.Addr
	}
	failFast := spawnGateway()
	partial := spawnGateway("-partial", "-min-coverage", "0.5")

	// Healthy baseline: both fronts answer 200 at full coverage.
	for _, front := range []string{failFast, partial} {
		resp := postPredict(t, front)
		if resp.status != http.StatusOK || resp.degraded != "" {
			t.Fatalf("healthy front %s answered %d (degraded %q), want clean 200", front, resp.status, resp.degraded)
		}
	}

	// SIGKILL shard group 1 through the scenario-driven proc driver.
	sc := chaos.ShardBlackout(1, 1, 0)
	d := chaos.NewProcDriver(sc, &procSignalTarget{r: r, ids: ids})
	d.Start()
	defer d.Stop()
	if _, exited := r.WaitExit(ids[1], 10*time.Second); !exited {
		t.Fatal("shard 1's pod survived the SIGKILL")
	}

	const n = 20
	ffOK, paOK := 0, 0
	for i := 0; i < n; i++ {
		if resp := postPredict(t, failFast); resp.status == http.StatusOK {
			ffOK++
		}
		resp := postPredict(t, partial)
		if resp.status != http.StatusOK {
			continue
		}
		paOK++
		if resp.degraded != httpapi.DegradedPartial {
			t.Fatalf("partial front served 200 without X-Degraded: partial (got %q)", resp.degraded)
		}
		if cov, ok := httpapi.Coverage(resp.header); !ok || cov != 0.75 {
			t.Fatalf("partial front X-Coverage = %v (ok=%v), want 0.75", cov, ok)
		}
		if len(resp.items) == 0 {
			t.Fatal("partial front answered with no recommendations")
		}
	}
	if ffOK != 0 {
		t.Fatalf("fail-fast front served %d/%d requests with a shard group dead, want 0", ffOK, n)
	}
	if paOK != n {
		t.Fatalf("partial front availability = %d/%d, want %d/%d", paOK, n, n, n)
	}
}

func waitReady(r *cluster.ProcRunner, id int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		st, err := r.Status(id)
		if err != nil {
			return false
		}
		if st.State == cluster.ProcReady {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

type predictResult struct {
	status   int
	degraded string
	header   http.Header
	items    []int64
}

func postPredict(t *testing.T, base string) predictResult {
	t.Helper()
	body, _ := json.Marshal(httpapi.PredictRequest{SessionID: 1, Items: []int64{7, 900, 1500}})
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(base+httpapi.PredictPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", base, err)
	}
	defer resp.Body.Close()
	out := predictResult{status: resp.StatusCode, degraded: resp.Header.Get(httpapi.HeaderDegraded), header: resp.Header}
	if resp.StatusCode == http.StatusOK {
		var pr httpapi.PredictResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
		out.items = pr.Items
	}
	return out
}
