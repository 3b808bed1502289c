package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"etude/internal/device"
	"etude/internal/metrics"
	"etude/internal/model"
	"etude/internal/powerlaw"
)

// Fig3Config controls the micro-benchmark. Latencies come from the device
// cost models: instant, deterministic, and covering accelerators; the real
// Go models' CPU latencies are timed by model.BenchmarkRecommend.
type Fig3Config struct {
	// Models to include (default: all ten).
	Models []string
	// CatalogSizes to sweep (paper: 1e4, 1e5, 1e6, 1e7).
	CatalogSizes []int
	// Devices to include (paper: cpu and gpu-t4).
	Devices []string
	// Requests is the number of serial requests per cell whose p90 is
	// reported.
	Requests int
	// AlphaLength shapes the session lengths (bol.com marginals).
	AlphaLength float64
	// Seed drives session sampling and weights.
	Seed int64
}

// DefaultFig3Config returns the paper-scale sweep.
func DefaultFig3Config() Fig3Config {
	return Fig3Config{
		Models:       model.Names(),
		CatalogSizes: []int{10_000, 100_000, 1_000_000, 10_000_000},
		Devices:      []string{"cpu", "gpu-t4"},
		Requests:     200,
		AlphaLength:  2.2,
		Seed:         1,
	}
}

// Fig3Row is one point of the micro-benchmark: p90 serial prediction
// latency of a model at a catalog size on a device in one execution mode.
type Fig3Row struct {
	Model       string        `json:"model"`
	CatalogSize int           `json:"catalog_size"`
	Device      string        `json:"device"`
	Exec        string        `json:"exec"` // "eager" or "jit"
	P90         time.Duration `json:"p90"`
	// JITSupported is false for LightSANs (dynamic code paths); its "jit"
	// rows then carry the eager latency, as PyTorch falls back.
	JITSupported bool `json:"jit_supported"`
}

// Fig3Result is the full sweep.
type Fig3Result struct {
	Rows []Fig3Row `json:"rows"`
}

// Fig3 runs the micro-benchmark: requests are sent serially (one after
// another), and the p90 prediction latency is reported per cell.
func Fig3(cfg Fig3Config) (*Fig3Result, error) {
	if len(cfg.Models) == 0 {
		cfg.Models = model.Names()
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 200
	}
	if cfg.AlphaLength == 0 {
		cfg.AlphaLength = 2.2
	}
	res := &Fig3Result{}
	for _, name := range cfg.Models {
		for _, c := range cfg.CatalogSizes {
			for _, dev := range cfg.Devices {
				spec, err := device.ByName(dev)
				if err != nil {
					return nil, err
				}
				for _, jit := range []bool{false, true} {
					row, err := fig3Cell(cfg, name, c, spec, jit)
					if err != nil {
						return nil, fmt.Errorf("experiments: fig3 %s/C=%d/%s: %w", name, c, dev, err)
					}
					res.Rows = append(res.Rows, row)
				}
			}
		}
	}
	return res, nil
}

func fig3Cell(cfg Fig3Config, name string, catalog int, spec device.Spec, jit bool) (Fig3Row, error) {
	mcfg := model.Config{CatalogSize: catalog, Seed: cfg.Seed}
	exec := "eager"
	if jit {
		exec = "jit"
	}
	jitSupported := name != "lightsans"
	effectiveJIT := jit && jitSupported

	lengths, err := powerlaw.New(cfg.AlphaLength, 1)
	if err != nil {
		return Fig3Row{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	hist := metrics.NewHistogram()
	for i := 0; i < cfg.Requests; i++ {
		l := lengths.SampleIntCapped(rng, 50)
		c, err := model.EstimateCost(name, mcfg, l)
		if err != nil {
			return Fig3Row{}, err
		}
		hist.Record(spec.SerialInference(c, effectiveJIT))
	}
	return Fig3Row{
		Model:        name,
		CatalogSize:  catalog,
		Device:       spec.Name,
		Exec:         exec,
		P90:          hist.Quantile(0.9),
		JITSupported: jitSupported,
	}, nil
}

func sampleSession(rng *rand.Rand, lengths powerlaw.Dist, catalog int) []int64 {
	l := lengths.SampleIntCapped(rng, 50)
	s := make([]int64, l)
	for i := range s {
		s[i] = rng.Int63n(int64(catalog))
	}
	return s
}

// Render prints the sweep grouped by model, catalog size ascending —
// the log-log series of Fig 3.
func (r *Fig3Result) Render() string {
	rows := append([]Fig3Row(nil), r.Rows...)
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Model != rows[j].Model {
			return rows[i].Model < rows[j].Model
		}
		if rows[i].CatalogSize != rows[j].CatalogSize {
			return rows[i].CatalogSize < rows[j].CatalogSize
		}
		if rows[i].Device != rows[j].Device {
			return rows[i].Device < rows[j].Device
		}
		return rows[i].Exec < rows[j].Exec
	})
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 3 — micro-benchmark: serial p90 prediction latency\n")
	fmt.Fprintf(&b, "%-10s %12s %-9s %-6s %14s\n", "model", "catalog", "device", "exec", "p90")
	for _, row := range rows {
		note := ""
		if row.Exec == "jit" && !row.JITSupported {
			note = "  (not JIT-able: eager fallback)"
		}
		fmt.Fprintf(&b, "%-10s %12d %-9s %-6s %14s%s\n",
			row.Model, row.CatalogSize, row.Device, row.Exec, row.P90.Round(time.Microsecond), note)
	}
	return b.String()
}

// Metrics emits one p90 per (model, catalog, device, exec) cell. The cost
// models are analytic, hence deterministic across machines.
func (r *Fig3Result) Metrics() map[string]float64 {
	m := map[string]float64{}
	for _, row := range r.Rows {
		pre := fmt.Sprintf("%s/c%d/%s/%s", keyify(row.Model), row.CatalogSize, keyify(row.Device), row.Exec)
		m[pre+"/p90_ms"] = msF(row.P90)
		m[pre+"/jit_supported"] = boolMetric(row.JITSupported)
	}
	return m
}
