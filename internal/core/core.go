// Package core is the ETUDE framework proper: the declarative experiment
// specification a data scientist writes (models to evaluate, workload
// statistics, hardware options, latency and throughput constraints), the
// runners that execute it — live against real in-process deployments, or on
// the discrete-event simulator for accelerator hardware — and the result
// records written to the object store when an experiment terminates.
package core

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"etude/internal/cluster"
	"etude/internal/costmodel"
	"etude/internal/device"
	"etude/internal/loadgen"
	"etude/internal/metrics"
	"etude/internal/model"
	"etude/internal/objstore"
	"etude/internal/server"
	"etude/internal/sim"
	"etude/internal/workload"
)

// Spec is a declarative benchmark experiment: which models to deploy on
// which hardware, under what workload, against which constraints.
type Spec struct {
	// Name labels the experiment (also the results key prefix).
	Name string `json:"name"`
	// Models lists the model names to evaluate.
	Models []string `json:"models"`
	// Instances lists the instance-type names to evaluate.
	Instances []string `json:"instances"`
	// CatalogSize is C for all deployed models.
	CatalogSize int `json:"catalog_size"`
	// Faithful selects the RecBole-faithful (buggy) model variants.
	Faithful bool `json:"faithful,omitempty"`
	// JIT serves JIT-compiled model variants.
	JIT bool `json:"jit"`
	// TargetRate is the ramp-up target in requests/second.
	TargetRate float64 `json:"target_rate"`
	// Duration is the benchmark length (paper default: 10 minutes).
	Duration time.Duration `json:"duration"`
	// AlphaLength and AlphaClicks are the workload marginals.
	AlphaLength float64 `json:"alpha_length"`
	// AlphaClicks shapes item popularity (live runs only; the simulator
	// needs only session lengths).
	AlphaClicks float64 `json:"alpha_clicks"`
	// LatencySLO is the p90 budget (paper: 50ms).
	LatencySLO time.Duration `json:"latency_slo"`
	// Replicas is the fleet size per deployment (default 1).
	Replicas int `json:"replicas,omitempty"`
	// Seed drives weights and workloads.
	Seed int64 `json:"seed"`
}

func (s Spec) withDefaults() Spec {
	if s.Duration <= 0 {
		s.Duration = 10 * time.Minute
	}
	if s.AlphaLength == 0 {
		s.AlphaLength, _ = workload.BolMarginals()
	}
	if s.AlphaClicks == 0 {
		_, s.AlphaClicks = workload.BolMarginals()
	}
	if s.LatencySLO <= 0 {
		s.LatencySLO = costmodel.LatencySLO
	}
	if s.Replicas <= 0 {
		s.Replicas = 1
	}
	return s
}

func (s Spec) validate() error {
	if s.CatalogSize <= 0 {
		return fmt.Errorf("core: catalog size must be positive, got %d", s.CatalogSize)
	}
	if s.TargetRate <= 0 {
		return fmt.Errorf("core: target rate must be positive, got %v", s.TargetRate)
	}
	if len(s.Models) == 0 || len(s.Instances) == 0 {
		return fmt.Errorf("core: spec needs at least one model and one instance type")
	}
	return nil
}

func (s Spec) modelConfig() model.Config {
	return model.Config{CatalogSize: s.CatalogSize, Seed: s.Seed, Faithful: s.Faithful}
}

// Measurement is the outcome of one (model, instance type) combination.
type Measurement struct {
	Experiment    string           `json:"experiment"`
	Model         string           `json:"model"`
	Instance      string           `json:"instance"`
	JIT           bool             `json:"jit"`
	Replicas      int              `json:"replicas"`
	TargetRate    float64          `json:"target_rate"`
	Latency       metrics.Snapshot `json:"latency"`
	Errors        int64            `json:"errors"`
	Backpressured int64            `json:"backpressured"`
	// Outcomes breaks responses down by status class (2xx/4xx/5xx) and
	// error kind (timeout/refused/server), plus degraded responses,
	// retries and drain stragglers. Zero-valued for pre-existing stored
	// results.
	Outcomes metrics.OutcomeCounts `json:"outcomes"`
	Sent     int64                 `json:"sent"`
	MeetsSLO bool                  `json:"meets_slo"`
	Series   []metrics.TickStats   `json:"series,omitempty"`
}

// RunSim executes the experiment on the discrete-event simulator: one run
// per (model, instance) pair, each with Replicas simulated instances.
func RunSim(spec Spec) ([]Measurement, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	var out []Measurement
	for _, name := range spec.Models {
		for _, instName := range spec.Instances {
			devSpec, err := device.ByName(instName)
			if err != nil {
				return nil, err
			}
			m, err := runOneSim(spec, name, devSpec)
			if err != nil {
				return nil, fmt.Errorf("core: %s on %s: %w", name, instName, err)
			}
			out = append(out, m)
		}
	}
	return out, nil
}

func runOneSim(spec Spec, modelName string, devSpec device.Spec) (Measurement, error) {
	eng := sim.NewEngine()
	fleet := make([]*sim.Instance, spec.Replicas)
	for i := range fleet {
		in, err := sim.NewInstance(eng, devSpec, modelName, spec.modelConfig(), spec.JIT, 2*time.Millisecond, devSpec.MaxBatch)
		if err != nil {
			return Measurement{}, err
		}
		fleet[i] = in
	}
	meas := Measurement{
		Experiment: spec.Name,
		Model:      modelName,
		Instance:   devSpec.Name,
		JIT:        spec.JIT,
		Replicas:   spec.Replicas,
		TargetRate: spec.TargetRate,
	}
	if !fleet[0].Fits() {
		// Model does not fit the accelerator: infeasible, zero traffic.
		return meas, nil
	}
	res, err := sim.RunBenchmark(eng, sim.LoadConfig{
		TargetRate:  spec.TargetRate,
		Duration:    spec.Duration,
		AlphaLength: spec.AlphaLength,
		Seed:        spec.Seed,
	}, fleet)
	if err != nil {
		return Measurement{}, err
	}
	meas.Latency = res.Recorder.Overall()
	meas.Errors = res.Recorder.Errors()
	meas.Outcomes = res.Recorder.Outcomes()
	meas.Backpressured = res.Backpressured
	meas.Sent = res.Sent
	meas.MeetsSLO = res.Meets(spec.LatencySLO)
	meas.Series = res.Recorder.Series()
	return meas, nil
}

// RunLive executes the experiment against real in-process deployments (the
// CPU serving path): models are published to the cluster's bucket, deployed
// behind readiness probes, and load-tested over HTTP with Algorithm 2.
// Only the "cpu" instance type can run live — accelerators are simulated.
func RunLive(ctx context.Context, c *cluster.Cluster, spec Spec) ([]Measurement, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	var out []Measurement
	for _, name := range spec.Models {
		for _, instName := range spec.Instances {
			if instName != "cpu" {
				return nil, fmt.Errorf("core: live runs support only cpu instances, got %q (use RunSim)", instName)
			}
			m, err := runOneLive(ctx, c, spec, name)
			if err != nil {
				return nil, fmt.Errorf("core: live %s: %w", name, err)
			}
			out = append(out, m)
		}
	}
	return out, nil
}

func runOneLive(ctx context.Context, c *cluster.Cluster, spec Spec, modelName string) (meas Measurement, err error) {
	key := fmt.Sprintf("models/%s/%s.json", spec.Name, modelName)
	manifest := model.Manifest{Model: modelName, Config: spec.modelConfig()}
	data, err := model.MarshalManifest(manifest)
	if err != nil {
		return Measurement{}, err
	}
	if err := c.Bucket().Put(key, data); err != nil {
		return Measurement{}, err
	}
	deployment := spec.Name + "-" + modelName
	svc, err := c.Deploy(ctx, deployment, cluster.PodSpec{
		Runtime:      cluster.RuntimeEtude,
		ModelKey:     key,
		InstanceType: "cpu",
		Server:       server.Options{JIT: spec.JIT},
	}, spec.Replicas)
	if err != nil {
		return Measurement{}, err
	}
	defer func() {
		if derr := c.Delete(deployment); derr != nil && err == nil {
			err = derr
		}
	}()

	gen, err := workload.NewGenerator(workload.Spec{
		CatalogSize: spec.CatalogSize,
		NumClicks:   1,
		AlphaLength: spec.AlphaLength,
		AlphaClicks: spec.AlphaClicks,
		Seed:        spec.Seed,
	})
	if err != nil {
		return Measurement{}, err
	}
	res, err := loadgen.Run(ctx, loadgen.Config{
		TargetRate: spec.TargetRate,
		Duration:   spec.Duration,
	}, gen, svc.Target())
	if err != nil {
		return Measurement{}, err
	}
	snap := res.Recorder.Overall()
	sent := res.Recorder.Sent()
	okRatio := 0.0
	if sent > 0 {
		okRatio = float64(sent-res.Recorder.Errors()) / float64(sent+res.Backpressured)
	}
	return Measurement{
		Experiment:    spec.Name,
		Model:         modelName,
		Instance:      "cpu",
		JIT:           spec.JIT,
		Replicas:      spec.Replicas,
		TargetRate:    spec.TargetRate,
		Latency:       snap,
		Errors:        res.Recorder.Errors(),
		Outcomes:      res.Outcomes,
		Backpressured: res.Backpressured,
		Sent:          sent,
		MeetsSLO:      snap.P90 <= spec.LatencySLO && okRatio >= 0.99,
		Series:        res.Recorder.Series(),
	}, nil
}

// SaveResults writes measurements as JSON to the bucket — the paper's "the
// observed measurements are written to a Google storage bucket upon
// termination of the experiment".
func SaveResults(b objstore.Bucket, key string, ms []Measurement) error {
	data, err := json.MarshalIndent(ms, "", "  ")
	if err != nil {
		return fmt.Errorf("core: encoding results: %w", err)
	}
	return b.Put(key, data)
}

// LoadResults reads measurements back from the bucket.
func LoadResults(b objstore.Bucket, key string) ([]Measurement, error) {
	data, err := b.Get(key)
	if err != nil {
		return nil, err
	}
	var ms []Measurement
	if err := json.Unmarshal(data, &ms); err != nil {
		return nil, fmt.Errorf("core: decoding results: %w", err)
	}
	return ms, nil
}
