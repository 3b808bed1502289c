// Package model implements the ten session-based recommendation models
// benchmarked in the ETUDE paper: GRU4Rec, RepeatNet, GC-SAN, SR-GNN, NARM,
// SINE, STAMP, LightSANs, CORE and SASRec.
//
// All models share the same inference skeleton: the session's item ids are
// embedded, an architecture-specific encoder produces a d-dimensional session
// representation, and a maximum-inner-product search over the learned
// representations of all C catalog items yields the top-k recommendations.
// This makes inference O(C·(d + log k)) for every architecture — the paper's
// central complexity observation — with the encoders differing only in the
// C-independent term.
//
// Weights are randomly initialised (deterministically, from a seed): the
// paper measures inference performance only, never prediction quality, and
// random weights exercise exactly the same compute.
package model

import (
	"fmt"
	"math"
	"sort"

	"etude/internal/tensor"
	"etude/internal/topk"
)

// DefaultTopK is the number of recommendations returned per request unless
// configured otherwise, matching the paper's "k is set to a small value".
const DefaultTopK = 21

// Config declares the shape of a model instance.
type Config struct {
	// CatalogSize is C, the number of distinct items.
	CatalogSize int
	// Dim is the embedding/hidden dimension d. If zero, it is derived from
	// CatalogSize with HeuristicDim.
	Dim int
	// MaxSessionLen truncates input sessions (most recent clicks win).
	MaxSessionLen int
	// TopK is the number of items to recommend.
	TopK int
	// Seed drives weight initialisation.
	Seed int64
	// Faithful selects the RecBole-faithful implementation for the four
	// models where the paper found performance bugs (RepeatNet's dense
	// operations on sparse matrices; SR-GNN's and GC-SAN's host round-trips).
	// When false, the fixed variants are used.
	Faithful bool

	// costOnly skips weight materialisation; set by EstimateCost. Such
	// models answer Cost and Config but must not serve Recommend.
	costOnly bool
}

// withDefaults fills derived and defaulted fields.
func (c Config) withDefaults() Config {
	if c.Dim == 0 {
		c.Dim = HeuristicDim(c.CatalogSize)
	}
	if c.MaxSessionLen == 0 {
		c.MaxSessionLen = 50
	}
	if c.TopK == 0 {
		c.TopK = DefaultTopK
	}
	return c
}

func (c Config) validate() error {
	if c.CatalogSize <= 0 {
		return fmt.Errorf("model: catalog size must be positive, got %d", c.CatalogSize)
	}
	if c.Dim < 0 || c.MaxSessionLen < 0 || c.TopK < 0 {
		return fmt.Errorf("model: negative config field in %+v", c)
	}
	return nil
}

// HeuristicDim returns the embedding dimension for a catalog of size c using
// the common "round up the fourth root of the category count" heuristic the
// paper adopts, rounded up to the next even number so multi-head attention
// always has an integral head size.
func HeuristicDim(c int) int {
	// The small epsilon absorbs float error for exact fourth powers
	// (e.g. 10000^0.25 evaluating to 10.000000000000002).
	d := int(math.Ceil(math.Pow(float64(c), 0.25) - 1e-9))
	if d < 2 {
		d = 2
	}
	if d%2 != 0 {
		d++
	}
	return d
}

// Cost is the analytic per-inference cost of a model, consumed by the
// accelerator cost model in internal/device. FLOP counts follow the usual
// 2·m·n·k convention for an [m,k]×[k,n] product.
//
// Memory traffic is split into SharedBytes (the catalog-embedding scan,
// which request batching amortises: one batch reads the catalog once) and
// PerRequestBytes (score materialisation, softmax and top-k passes over the
// C-length score vector, which every request in a batch pays individually).
type Cost struct {
	// Catalog and Dim echo the model configuration (C and d).
	Catalog int
	Dim     int
	// EncoderFLOPs covers the session encoder (independent of C).
	EncoderFLOPs float64
	// MIPSFLOPs covers the catalog scoring pass: 2·C·d.
	MIPSFLOPs float64
	// TopKOps approximates the heap maintenance: C·log2(k).
	TopKOps float64
	// SharedBytes is the batch-amortisable catalog scan traffic: C·d·4.
	SharedBytes float64
	// PerRequestBytes is the non-amortisable per-request traffic over the
	// score vector (materialise, softmax, select): scorePasses·C·4.
	PerRequestBytes float64
	// KernelLaunches approximates the number of device kernels per
	// inference; on accelerators each launch costs fixed overhead.
	KernelLaunches int
	// HostTransfers counts host↔device round trips forced by the
	// implementation (the SR-GNN / GC-SAN NumPy-in-inference bug). Zero for
	// healthy models and fixed variants.
	HostTransfers int
	// DenseOverheadFLOPs is extra work from dense operations on sparse data
	// (the RepeatNet bug). Zero for healthy models and fixed variants.
	DenseOverheadFLOPs float64
}

// scorePasses is the number of passes over the C-length score vector a
// PyTorch-style full_sort_predict makes per request: materialise the scores,
// soft-max them (read + write) and run top-k selection (two passes).
const scorePasses = 6

// TotalFLOPs returns all floating-point work per inference.
func (c Cost) TotalFLOPs() float64 {
	return c.EncoderFLOPs + c.MIPSFLOPs + c.DenseOverheadFLOPs
}

// Model is a deployable SBR model.
type Model interface {
	// Name returns the canonical model name (e.g. "gru4rec").
	Name() string
	// Config returns the resolved configuration.
	Config() Config
	// Recommend returns the top-k next-item recommendations for a session
	// of item ids, most recent click last.
	Recommend(session []int64) []topk.Result
	// Cost returns the analytic per-inference cost for a session of the
	// given length.
	Cost(sessionLen int) Cost
}

// JITCompilable is implemented by models whose execution can be compiled
// into a fused plan by internal/jit. LightSANs deliberately does not
// implement it (dynamic code paths), reproducing the paper's finding.
type JITCompilable interface {
	// CompiledRecommend returns an optimised closure equivalent to
	// Recommend. The closure may reuse internal buffers and must not be
	// called concurrently.
	CompiledRecommend() func(session []int64) []topk.Result
}

// CompiledEncoder is implemented by the compilable models whose plan ends
// in the exact MIPS scan — all but RepeatNet, which scores through
// SelectFromScores. Their CompiledRecommend is CompiledEncode followed by
// topk.TopK over ItemEmbeddings, so a caller holding several sessions can
// encode each and read the catalog once for all of them
// (topk.Scanner.TopKBatch) with bit-identical results.
type CompiledEncoder interface {
	JITCompilable
	// CompiledEncode returns the encode half of CompiledRecommend: the
	// session representation its plan scores. The returned tensor may be
	// the plan's own buffer, valid until the next call; the closure must
	// not be called concurrently.
	CompiledEncode() func(session []int64) *tensor.Tensor
	// ItemEmbeddings returns the [C, d] catalog the plan scans.
	ItemEmbeddings() *tensor.Tensor
}

// Builder constructs a model from a config.
type Builder func(cfg Config) (Model, error)

var registry = map[string]Builder{}

// Register adds a model builder under name. It panics on duplicates, which
// indicates a programming error at init time.
func Register(name string, b Builder) {
	if _, dup := registry[name]; dup {
		panic("model: duplicate registration of " + name)
	}
	registry[name] = b
}

// New builds the named model.
func New(name string, cfg Config) (Model, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("model: unknown model %q (have %v)", name, Names())
	}
	return b(cfg)
}

// EstimateCost returns the analytic per-inference Cost of the named model
// under cfg without materialising any weights. Use this for capacity
// planning and simulation over very large catalogs, where instantiating the
// [C × d] embedding table (gigabytes for C = 2·10⁷) would be wasteful.
func EstimateCost(name string, cfg Config, sessionLen int) (Cost, error) {
	cfg.costOnly = true
	m, err := New(name, cfg)
	if err != nil {
		return Cost{}, err
	}
	return m.Cost(sessionLen), nil
}

// Names returns all registered model names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// BrokenModels lists the four models for which the paper found
// implementation errors in RecBole and which Table I therefore excludes.
func BrokenModels() []string {
	return []string{"gcsan", "lightsans", "repeatnet", "srgnn"}
}

// TableIModels lists the six healthy models that appear in Table I.
func TableIModels() []string {
	return []string{"core", "gru4rec", "narm", "sasrec", "sine", "stamp"}
}

// truncate clips a session to the most recent maxLen clicks.
func truncate(session []int64, maxLen int) []int64 {
	if len(session) > maxLen {
		return session[len(session)-maxLen:]
	}
	return session
}

// mipsCost returns the catalog-scan components shared by all models.
func mipsCost(catalog, dim, k int) Cost {
	return Cost{
		Catalog:         catalog,
		Dim:             dim,
		MIPSFLOPs:       2 * float64(catalog) * float64(dim),
		TopKOps:         float64(catalog) * math.Log2(float64(max(k, 2))),
		SharedBytes:     float64(catalog) * float64(dim) * 4,
		PerRequestBytes: scorePasses * float64(catalog) * 4,
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
