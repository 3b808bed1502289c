package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"etude/internal/chaos"
	"etude/internal/device"
	"etude/internal/httpapi"
	"etude/internal/leakcheck"
	"etude/internal/model"
	"etude/internal/sim"
	"etude/internal/topk"
)

// diffScenario is one scripted run of a 2-shard × 2-replica fleet (pod
// s·2+r is shard s, replica r), played through both gather drivers.
type diffScenario struct {
	name   string
	policy Policy
	hedge  HedgeConfig
	faults chaos.Scenario
	// gaps[i] is the pause before request i, after request i-1 finished.
	gaps []time.Duration
	want []string
}

// liveBase is a healthy live replica's service time. Simulated shard
// workers take ~15ms (gru4rec, C=2e6 over two shards, on the CPU spec), so
// one set of delays orders both fleets' events the same way.
const liveBase = 20 * time.Millisecond

func diffScenarios() []diffScenario {
	groupOneDown := chaos.Scenario{Name: "group 1 down", Faults: []chaos.Fault{
		{Kind: chaos.FaultAZOutage, Pods: []int{2, 3}},
	}}
	request := func(n string) []string {
		return []string{"send 0", "send 1", "miss 1", "finish " + n}
	}
	skipped := []string{"send 0", "skip 1", "miss 1", "finish 1/2"}
	return []diffScenario{
		{
			// The primary of shard 0 is 10× slow: shard 1 answers (1×), the
			// hedge fires (3×), its backup answers (4×) and the slow
			// primary (10×) is cancelled.
			name:   "hedge wins against a 10x-slow replica",
			hedge:  HedgeConfig{Enabled: true, Delay: 3 * liveBase},
			faults: chaos.SlowShard(0, 0, 10),
			gaps:   []time.Duration{0},
			want:   []string{"send 0", "send 1", "hedge 0", "cancel 0", "finish 2/2"},
		},
		{
			// Three misses open group 1's breaker, so the fourth request
			// skips it. Past the cooldown one probe goes out, fails and
			// re-opens the breaker for the request after it.
			name:   "blacked-out group opens its breaker, then probes",
			policy: Policy{Mode: PolicyPartial, MinCoverage: 0.5, BreakerCooldown: 300 * time.Millisecond},
			faults: groupOneDown,
			gaps:   []time.Duration{0, 0, 0, 0, 500 * time.Millisecond, 0},
			want: concat(request("1/2"), request("1/2"), request("1/2"), skipped,
				request("1/2"), skipped),
		},
		{
			// With a floor of both shards, shard 1's miss makes it
			// unreachable: the gather ends there and cancels shard 0.
			name:   "partial floor becomes unreachable and finishes early",
			policy: Policy{Mode: PolicyPartial, MinCoverage: 1},
			faults: groupOneDown,
			gaps:   []time.Duration{0},
			want:   []string{"send 0", "send 1", "miss 1", "cancel 0", "finish coverage 0/2"},
		},
		{
			name:   "fail-fast ends at the first failure",
			faults: groupOneDown,
			gaps:   []time.Duration{0},
			want:   []string{"send 0", "send 1", "miss 1", "cancel 0", "finish error"},
		},
	}
}

func concat(parts ...[]string) []string {
	var out []string
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// The simulated fleet and the live gateway drive one gather core, so one
// scripted scenario — the same faults, chaos-injected into sim workers and
// into httptest replicas — must produce the same sequence of core actions
// on both.
func TestGatherLiveAndSimDecideAlike(t *testing.T) {
	for _, sc := range diffScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			if got := simActions(t, sc); !reflect.DeepEqual(got, sc.want) {
				t.Errorf("sim actions\n got %q\nwant %q", got, sc.want)
			}
			if got := liveActions(t, sc); !reflect.DeepEqual(got, sc.want) {
				t.Errorf("live actions\n got %q\nwant %q", got, sc.want)
			}
		})
	}
}

func simActions(t *testing.T, sc diffScenario) []string {
	eng := sim.NewEngine()
	f, err := NewSimFleet(eng, SimConfig{
		Device:   device.CPU(),
		Model:    "gru4rec",
		ModelCfg: model.Config{CatalogSize: 2_000_000},
		Shards:   2,
		Replicas: 2,
		Hedge:    sc.hedge,
		Policy:   sc.policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	f.core.log = func(a string) { log = append(log, a) }
	if err := chaos.NewInjector(sc.faults).Arm(eng, f.Instances()); err != nil {
		t.Fatal(err)
	}
	var next func(i int)
	next = func(i int) {
		if i < len(sc.gaps) {
			eng.Schedule(sc.gaps[i], func() { f.Submit(1, func(sim.Outcome) { next(i + 1) }) })
		}
	}
	next(0)
	eng.Drain()
	return log
}

func liveActions(t *testing.T, sc diffScenario) []string {
	leakcheck.Check(t)
	inj := chaos.NewInjector(sc.faults)
	pickers := make([]Picker, 2)
	for s := range pickers {
		urls := make([]string, 2)
		for r := range urls {
			pod := s*2 + r
			srv := httptest.NewServer(inj.Middleware(pod)(stubReplica(pod, slowFactor(sc.faults, pod)*liveBase)))
			t.Cleanup(srv.Close)
			urls[r] = srv.URL
		}
		pickers[s] = NewStaticPicker(urls...)
	}
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	gw, err := NewGateway(pickers, GatewayConfig{K: 1, Hedge: sc.hedge, Policy: sc.policy, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	gw.core.log = func(a string) { log = append(log, a) }
	for _, gap := range sc.gaps {
		time.Sleep(gap)
		gw.PredictPartial(context.Background(), httpapi.PredictRequest{Items: []int64{1}})
	}
	return log
}

// slowFactor is pod's service-time multiplier under the scenario (1 when
// no slow-pod fault targets it).
func slowFactor(sc chaos.Scenario, pod int) time.Duration {
	for _, f := range sc.Faults {
		if f.Kind == chaos.FaultSlowPod && f.Pod == pod {
			return time.Duration(f.Factor)
		}
	}
	return 1
}

// stubReplica answers one item after delay, or gives up when the caller
// cancels first.
func stubReplica(pod int, delay time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		timer := time.NewTimer(delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-r.Context().Done():
			return
		}
		json.NewEncoder(w).Encode(httpapi.PredictResponse{Items: []int64{int64(pod)}, Scores: []float32{1}})
	})
}

// Concurrent requests on one gateway share its core — breakers, hedge
// delay and counters — while each drives its own gather. Run under -race.
func TestGatewayConcurrentRequestsShareOneCore(t *testing.T) {
	leakcheck.Check(t)
	faults := chaos.Scenario{Name: "group 1 down", Faults: []chaos.Fault{{Kind: chaos.FaultAZOutage, Pods: []int{2, 3}}}}
	inj := chaos.NewInjector(faults)
	pickers := make([]Picker, 2)
	for s := range pickers {
		urls := make([]string, 2)
		for r := range urls {
			srv := httptest.NewServer(inj.Middleware(s*2 + r)(stubReplica(s*2+r, time.Millisecond)))
			t.Cleanup(srv.Close)
			urls[r] = srv.URL
		}
		pickers[s] = NewStaticPicker(urls...)
	}
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	gw, err := NewGateway(pickers, GatewayConfig{K: 1, Transport: tr,
		Hedge:  HedgeConfig{Enabled: true, Delay: 500 * time.Microsecond},
		Policy: Policy{Mode: PolicyPartial, MinCoverage: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				pr, err := gw.PredictPartial(context.Background(), httpapi.PredictRequest{Items: []int64{1}})
				if err != nil || pr.Answered != 1 || len(pr.Recs) != 1 {
					t.Errorf("PredictPartial = %+v, %v; want shard 0's answer alone", pr, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if ps := gw.PartialStats(); ps.Partial() != 40 || ps.Skipped() == 0 {
		t.Fatalf("partial %d, skipped %d; want 40 partial answers and the dead group skipped", ps.Partial(), ps.Skipped())
	}
}

// fakeDriver records what a gather asks of it and lets a test feed the
// inputs back in any order.
type fakeDriver struct {
	rng       *rand.Rand
	sent      []int  // attempt → shard
	cancelled []bool // attempt → the core cancelled it
	armed     []int  // shards whose hedge timer is armed
	finished  int
}

func (d *fakeDriver) send(a, s int, backup bool) (func(), error) {
	switch r := d.rng.Intn(10); {
	case r == 0:
		return nil, errors.New("no replica")
	case r == 1 && backup:
		return nil, errSameReplica
	}
	if a != len(d.sent) {
		panic(fmt.Sprintf("attempt id %d, want %d", a, len(d.sent)))
	}
	d.sent = append(d.sent, s)
	d.cancelled = append(d.cancelled, false)
	return func() { d.cancelled[a] = true }, nil
}

func (d *fakeDriver) armHedge(s int, _ time.Duration) { d.armed = append(d.armed, s) }
func (d *fakeDriver) finish(*gather)                  { d.finished++ }

// Random event traces through the core alone: outcomes in any order (late
// losers included), hedge timers with and without budget, aborts, on one
// core whose breakers and hedge delay carry across requests.
func TestGatherPropertiesOnRandomTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		shards := 1 + rng.Intn(5)
		pol := Policy{BreakerThreshold: 1 + rng.Intn(3), BreakerCooldown: time.Duration(1+rng.Intn(50)) * time.Millisecond}
		if rng.Intn(2) == 0 {
			pol.Mode, pol.MinCoverage = PolicyPartial, rng.Float64()
		}
		c := newGatherCore(shards, pol, HedgeConfig{Enabled: rng.Intn(4) > 0, Delay: time.Millisecond})
		floor := pol.MinShards(shards)
		var now time.Duration
		for req := 0; req < 20; req++ {
			d := &fakeDriver{rng: rng}
			g := c.newGather(d)
			g.start(now)
			reported := map[int]bool{}
			for {
				now += time.Duration(rng.Intn(3000)) * time.Microsecond
				var open []int
				for a := range d.sent {
					if !reported[a] {
						open = append(open, a)
					}
				}
				if len(open) == 0 && len(d.armed) == 0 {
					break
				}
				switch r := rng.Intn(20); {
				case r == 0:
					g.abort(context.Canceled)
				case r < 5 && len(d.armed) > 0:
					i := rng.Intn(len(d.armed))
					s := d.armed[i]
					d.armed = append(d.armed[:i], d.armed[i+1:]...)
					budget := noDeadline
					if rng.Intn(3) == 0 {
						budget = time.Duration(rng.Intn(2000)) * time.Microsecond
					}
					g.hedgeFired(s, now, budget)
				case len(open) > 0:
					a := open[rng.Intn(len(open))]
					reported[a] = true
					b := c.breakers[d.sent[a]]
					fails, openUntil := b.fails, b.openUntil
					var err error
					if rng.Intn(3) == 0 {
						err = errors.New("replica failed")
					}
					g.outcome(a, now, []topk.Result{{Item: int64(a)}}, err)
					if d.cancelled[a] && (b.fails != fails || b.openUntil != openUntil) {
						t.Fatalf("trial %d: breaker charged for attempt %d, which the core cancelled", trial, a)
					}
				}
				if g.answered+g.missed > shards {
					t.Fatalf("trial %d: answered %d + missed %d > %d shards", trial, g.answered, g.missed, shards)
				}
			}
			if d.finished != 1 || !g.done {
				t.Fatalf("trial %d request %d: finished %d times (done=%v)", trial, req, d.finished, g.done)
			}
			var ce *CoverageError
			switch {
			case g.err == nil && (g.answered < floor || g.answered+g.missed != shards):
				t.Fatalf("trial %d: served %d answered + %d missed of %d, floor %d", trial, g.answered, g.missed, shards, floor)
			case errors.As(g.err, &ce) && (ce.Answered >= ce.Min || pol.Mode != PolicyPartial):
				t.Fatalf("trial %d: %v under %v", trial, ce, pol.Mode)
			}
			for a, s := range d.sent {
				if !g.attempts[a].over || g.attempts[a].shard != s {
					t.Fatalf("trial %d: attempt %d left in flight after finish", trial, a)
				}
			}
		}
		if st := &c.stats; st.Wins() > st.Sent() || st.Cancelled() > st.Sent() {
			t.Fatalf("trial %d: hedge counters sent %d, wins %d, cancelled %d", trial, st.Sent(), st.Wins(), st.Cancelled())
		}
	}
}
