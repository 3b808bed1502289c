package model

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"etude/internal/topk"
)

func testConfig() Config {
	return Config{CatalogSize: 200, Seed: 1}
}

func TestHeuristicDim(t *testing.T) {
	cases := []struct{ c, want int }{
		{10_000, 10},
		{100_000, 18},
		{1_000_000, 32},
		{10_000_000, 58},
		{20_000_000, 68},
		{1, 2},
		{16, 2},
		{17, 4},
	}
	for _, tc := range cases {
		if got := HeuristicDim(tc.c); got != tc.want {
			t.Errorf("HeuristicDim(%d) = %d, want %d", tc.c, got, tc.want)
		}
	}
}

func TestNamesContainsAllTenModels(t *testing.T) {
	want := []string{"core", "gcsan", "gru4rec", "lightsans", "narm", "repeatnet", "sasrec", "sine", "srgnn", "stamp"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestNewUnknownModel(t *testing.T) {
	if _, err := New("nonexistent", testConfig()); err == nil {
		t.Fatalf("expected error for unknown model")
	}
}

func TestNewInvalidConfig(t *testing.T) {
	for _, name := range Names() {
		if _, err := New(name, Config{CatalogSize: 0}); err == nil {
			t.Errorf("%s: expected error for zero catalog", name)
		}
		if _, err := New(name, Config{CatalogSize: -5}); err == nil {
			t.Errorf("%s: expected error for negative catalog", name)
		}
	}
}

// TestAllModelsRecommend is the core contract test: every registered model
// must produce k unique, in-range, score-sorted recommendations for typical,
// single-click, repeated-item and over-long sessions — without panicking.
func TestAllModelsRecommend(t *testing.T) {
	sessions := map[string][]int64{
		"typical":  {3, 17, 42, 9},
		"single":   {5},
		"repeats":  {7, 7, 7, 7, 7},
		"long":     longSession(120, 200),
		"empty":    {},
		"boundary": {0, 199},
		"revisits": {1, 2, 1, 3, 2, 1},
	}
	for _, name := range Names() {
		m, err := New(name, testConfig())
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("%s: Name() = %q", name, m.Name())
		}
		cfg := m.Config()
		if cfg.TopK != DefaultTopK || cfg.Dim == 0 {
			t.Errorf("%s: defaults not applied: %+v", name, cfg)
		}
		for label, session := range sessions {
			recs := m.Recommend(session)
			if len(recs) != cfg.TopK {
				t.Fatalf("%s/%s: got %d recs, want %d", name, label, len(recs), cfg.TopK)
			}
			seen := make(map[int64]bool)
			for i, r := range recs {
				if r.Item < 0 || r.Item >= int64(cfg.CatalogSize) {
					t.Fatalf("%s/%s: item %d out of range", name, label, r.Item)
				}
				if seen[r.Item] {
					t.Fatalf("%s/%s: duplicate item %d", name, label, r.Item)
				}
				seen[r.Item] = true
				if i > 0 && recs[i-1].Score < r.Score {
					t.Fatalf("%s/%s: scores not descending at %d", name, label, i)
				}
			}
		}
	}
}

// TestModelsDeterministic: same seed and session ⇒ identical output;
// different seeds ⇒ (almost surely) different top item ordering.
func TestModelsDeterministic(t *testing.T) {
	session := []int64{3, 17, 42, 9, 65}
	for _, name := range Names() {
		a, _ := New(name, testConfig())
		b, _ := New(name, testConfig())
		ra, rb := a.Recommend(session), b.Recommend(session)
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("%s: nondeterministic output at %d: %+v vs %+v", name, i, ra[i], rb[i])
			}
		}
	}
}

func TestModelsSeedSensitivity(t *testing.T) {
	session := []int64{3, 17, 42, 9, 65}
	differs := 0
	for _, name := range Names() {
		a, _ := New(name, Config{CatalogSize: 200, Seed: 1})
		b, _ := New(name, Config{CatalogSize: 200, Seed: 99})
		if a.Recommend(session)[0] != b.Recommend(session)[0] {
			differs++
		}
	}
	if differs < len(Names())-2 {
		t.Fatalf("only %d/%d models changed output with the seed", differs, len(Names()))
	}
}

// TestCompiledMatchesEager: the JIT contract — the compiled path must return
// exactly the same recommendations as eager execution. LightSANs must NOT be
// compilable (the paper's finding).
func TestCompiledMatchesEager(t *testing.T) {
	sessions := [][]int64{{3, 17, 42, 9}, {5}, {1, 2, 1, 3, 2, 1}, {}}
	for _, name := range Names() {
		m, _ := New(name, testConfig())
		jc, ok := m.(JITCompilable)
		if name == "lightsans" {
			if ok {
				t.Fatalf("lightsans must not be JIT-compilable (dynamic code paths)")
			}
			continue
		}
		if !ok {
			t.Fatalf("%s: expected JITCompilable", name)
		}
		compiled := jc.CompiledRecommend()
		for _, session := range sessions {
			eager := m.Recommend(session)
			fast := compiled(session)
			if len(eager) != len(fast) {
				t.Fatalf("%s: compiled len %d != eager %d", name, len(fast), len(eager))
			}
			for i := range eager {
				if eager[i] != fast[i] {
					t.Fatalf("%s session %v pos %d: compiled %+v != eager %+v",
						name, session, i, fast[i], eager[i])
				}
			}
		}
	}
}

// TestCompiledReusableAcrossCalls guards against stale buffer state: calling
// the compiled closure twice with different sessions must match eager each
// time.
func TestCompiledReusableAcrossCalls(t *testing.T) {
	for _, name := range Names() {
		m, _ := New(name, testConfig())
		jc, ok := m.(JITCompilable)
		if !ok {
			continue
		}
		compiled := jc.CompiledRecommend()
		s1, s2 := []int64{1, 2, 3}, []int64{99, 98}
		compiled(s1)
		got := compiled(s2)
		want := m.Recommend(s2)
		if got[0].Item != want[0].Item {
			t.Fatalf("%s: compiled state leaked across calls", name)
		}
	}
}

func TestCostScalesWithCatalog(t *testing.T) {
	for _, name := range Names() {
		small, _ := New(name, Config{CatalogSize: 1000, Seed: 1})
		large, _ := New(name, Config{CatalogSize: 100_000, Seed: 1})
		cs, cl := small.Cost(10), large.Cost(10)
		if cl.MIPSFLOPs <= cs.MIPSFLOPs {
			t.Errorf("%s: MIPS cost must grow with catalog", name)
		}
		// The catalog term must dominate for large C: the paper's central
		// observation that inference time is linear in C.
		if cl.MIPSFLOPs < 10*cs.MIPSFLOPs {
			t.Errorf("%s: MIPS cost not linear in catalog: %v vs %v", name, cs.MIPSFLOPs, cl.MIPSFLOPs)
		}
		if cs.EncoderFLOPs <= 0 || cs.TotalFLOPs() <= 0 || cs.SharedBytes <= 0 || cs.PerRequestBytes <= 0 {
			t.Errorf("%s: degenerate cost %+v", name, cs)
		}
		if cs.KernelLaunches <= 0 {
			t.Errorf("%s: kernel launches must be positive", name)
		}
	}
}

func TestCostSessionLenClamped(t *testing.T) {
	m, _ := New("gru4rec", testConfig())
	atMax := m.Cost(m.Config().MaxSessionLen)
	beyond := m.Cost(10 * m.Config().MaxSessionLen)
	if atMax.EncoderFLOPs != beyond.EncoderFLOPs {
		t.Fatalf("cost must clamp session length to MaxSessionLen")
	}
}

func TestFaithfulVariantsCostMore(t *testing.T) {
	cfgFix := Config{CatalogSize: 50_000, Seed: 1}
	cfgBug := Config{CatalogSize: 50_000, Seed: 1, Faithful: true}

	rn, _ := New("repeatnet", cfgFix)
	rnBug, _ := New("repeatnet", cfgBug)
	if rnBug.Cost(20).DenseOverheadFLOPs <= rn.Cost(20).DenseOverheadFLOPs {
		t.Fatalf("faithful RepeatNet must carry dense-scatter overhead")
	}
	if rn.Cost(20).DenseOverheadFLOPs != 0 {
		t.Fatalf("fixed RepeatNet must have zero dense overhead")
	}
	for _, name := range []string{"srgnn", "gcsan"} {
		fix, _ := New(name, cfgFix)
		bug, _ := New(name, cfgBug)
		if bug.Cost(20).HostTransfers == 0 {
			t.Fatalf("faithful %s must report host transfers", name)
		}
		if fix.Cost(20).HostTransfers != 0 {
			t.Fatalf("fixed %s must report zero host transfers", name)
		}
	}
}

// TestRepeatNetFaithfulMatchesFixed: the dense and sparse scatter are
// mathematically identical — the bug is performance, not correctness.
func TestRepeatNetFaithfulMatchesFixed(t *testing.T) {
	fix, _ := New("repeatnet", Config{CatalogSize: 300, Seed: 7})
	bug, _ := New("repeatnet", Config{CatalogSize: 300, Seed: 7, Faithful: true})
	for _, session := range [][]int64{{1, 2, 3}, {250, 4, 250}, {0}} {
		rf, rb := fix.Recommend(session), bug.Recommend(session)
		for i := range rf {
			if rf[i].Item != rb[i].Item {
				t.Fatalf("session %v pos %d: fixed %d != faithful %d", session, i, rf[i].Item, rb[i].Item)
			}
		}
	}
}

// TestRepeatNetBoostsRepeats: a heavily repeated item should rank very high
// thanks to the repeat mechanism, regardless of random weights.
func TestRepeatNetBoostsRepeats(t *testing.T) {
	m, _ := New("repeatnet", Config{CatalogSize: 500, Seed: 3})
	session := []int64{123, 123, 123, 123, 123, 123}
	recs := m.Recommend(session)
	for i, r := range recs {
		if r.Item == 123 {
			if i > 3 {
				t.Fatalf("repeated item ranked only %d-th", i)
			}
			return
		}
	}
	t.Fatalf("repeated item not in top-%d at all", len(recs))
}

func TestBrokenAndTableIModelsPartition(t *testing.T) {
	all := map[string]bool{}
	for _, n := range BrokenModels() {
		all[n] = true
	}
	for _, n := range TableIModels() {
		if all[n] {
			t.Fatalf("%s is in both broken and Table I lists", n)
		}
		all[n] = true
	}
	if len(all) != len(Names()) {
		t.Fatalf("broken + tableI = %d models, want %d", len(all), len(Names()))
	}
}

func TestTopKConfigRespected(t *testing.T) {
	m, _ := New("core", Config{CatalogSize: 100, Seed: 1, TopK: 5})
	if got := len(m.Recommend([]int64{1, 2})); got != 5 {
		t.Fatalf("TopK=5 but got %d recs", got)
	}
}

func TestTopKLargerThanCatalog(t *testing.T) {
	m, _ := New("stamp", Config{CatalogSize: 10, Seed: 1, TopK: 50})
	if got := len(m.Recommend([]int64{1, 2})); got != 10 {
		t.Fatalf("k>C should return C recs, got %d", got)
	}
}

// Property: for every model, any session over a small catalog yields valid
// recommendations.
func TestRecommendProperty(t *testing.T) {
	models := make([]Model, 0, len(Names()))
	for _, name := range Names() {
		m, err := New(name, Config{CatalogSize: 64, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	f := func(raw []uint8) bool {
		session := make([]int64, len(raw))
		for i, r := range raw {
			session[i] = int64(r % 64)
		}
		for _, m := range models {
			recs := m.Recommend(session)
			if len(recs) != m.Config().TopK {
				return false
			}
			for _, r := range recs {
				if r.Item < 0 || r.Item >= 64 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func longSession(n int, catalog int64) []int64 {
	rng := rand.New(rand.NewSource(13))
	s := make([]int64, n)
	for i := range s {
		s[i] = rng.Int63n(catalog)
	}
	return s
}

func TestManifestRoundTrip(t *testing.T) {
	m := Manifest{Model: "stamp", Config: Config{CatalogSize: 100, Seed: 7, TopK: 5}}
	data, err := MarshalManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("round trip: %+v != %+v", got, m)
	}
	loaded, err := got.Load()
	if err != nil {
		t.Fatal(err)
	}
	// Loaded model must be bit-identical to a directly constructed one.
	direct, _ := New("stamp", m.Config)
	a, b := loaded.Recommend([]int64{1, 2}), direct.Recommend([]int64{1, 2})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("manifest load not reproducible at %d", i)
		}
	}
}

func TestManifestErrors(t *testing.T) {
	if _, err := UnmarshalManifest([]byte("{")); err == nil {
		t.Fatalf("bad JSON accepted")
	}
	if _, err := UnmarshalManifest([]byte("{}")); err == nil {
		t.Fatalf("missing model name accepted")
	}
	if _, err := (Manifest{Model: "ghost", Config: Config{CatalogSize: 10}}).Load(); err == nil {
		t.Fatalf("unknown model loaded")
	}
}

func TestEstimateCostMatchesFullModel(t *testing.T) {
	for _, name := range Names() {
		cfg := Config{CatalogSize: 5000, Seed: 1}
		m, err := New(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		est, err := EstimateCost(name, cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		if est != m.Cost(7) {
			t.Fatalf("%s: EstimateCost %+v != Cost %+v", name, est, m.Cost(7))
		}
	}
}

// TestGoldenRecommendations pins, item by item and score bit by score bit,
// the top-k every model returns for a fixed seed and session, and holds the
// eager, compiled and staged paths to it. The values were taken from the
// commit before the scan kernel, fused top-k and core split landed, so a
// kernel that reorders a sum or a selection that breaks a tie differently
// fails here. Any change means inference behaviour changed — architectures,
// initialisation order, float summation order or scoring — and must be a
// conscious decision (regenerate the goldens when it is).
func TestGoldenRecommendations(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("scores are pinned for amd64; compilers for other platforms may fuse multiply-adds")
	}
	golden := map[string]string{
		"core":      "71:404b1e0e 83:4041de5d 17:4036b454 50:4031f450 26:402cbd60 132:402bfc94 130:4024f9a8 20:401fb2c1 116:401b18fd 70:4019bd57 151:4016a57f 118:4014c8be 191:40148c3e 194:40147367 136:40129e32 121:4011e21d 40:400fbd76 177:400f1d02 58:400c409e 65:4009bc59 39:40062b6b",
		"gcsan":     "95:3e97dde8 13:3e8a9b9a 89:3e884ca6 78:3e72a468 180:3e5e1a12 136:3e5c062a 70:3e552e74 67:3e547e5f 124:3e52352c 194:3e4de98a 129:3e3775db 73:3e32cff4 7:3e31d561 186:3e2faac2 46:3e23c3f7 75:3e21c48e 83:3e21bc0d 39:3e1e5c98 189:3e17cf68 12:3e1677ed 144:3e16755c",
		"gru4rec":   "49:3c09c49b 128:3c057f82 52:3bf46dba 190:3bd38374 188:3bd02ff3 69:3bbe115b 165:3bb9ebcc 122:3bb48a7f 22:3bb06df6 155:3baeb5d3 145:3bab3d9c 80:3ba78bb5 131:3ba55e17 77:3ba4b247 14:3b9b8bc1 62:3b9a543a 120:3b985607 31:3b983265 35:3b979e5c 8:3b971bd0 51:3b939316",
		"lightsans": "71:3f146449 50:3f09dcfe 177:3f05f9a3 20:3f029126 28:3efb6d18 87:3ef3e56e 151:3edb6373 34:3eda8a8e 130:3ed6b8d7 100:3ecf87e5 105:3ecc68cc 193:3ec33530 167:3ebbaaa0 116:3eac247d 30:3eac00d4 58:3eaae7ca 70:3ea82742 56:3ea783ee 111:3ea0f76e 142:3e9e5686 109:3e9bf1a4",
		"narm":      "50:3c30950f 71:3c30617d 70:3c1fe140 151:3c1a9085 83:3c14b88b 89:3c09e913 20:3c08c6b5 177:3c030c34 130:3bfcea30 116:3bf53054 136:3bed4c3a 34:3bebde30 191:3bebd575 180:3be9396c 167:3bdd7087 87:3bd953d0 121:3bd8d94a 39:3bd2fdc9 58:3bce5a23 100:3bc8b1d0 17:3bc14d0f",
		"repeatnet": "9:3dddba4a 42:3dd90c23 3:3dd58ac6 65:3dcc3ab0 17:3dca53d7 94:3b238601 90:3b237956 97:3b235c2e 143:3b234bc9 154:3b234bbc 54:3b234134 87:3b232eb0 114:3b232e5c 98:3b232cad 72:3b2324cb 189:3b232497 195:3b232045 34:3b231963 99:3b231203 150:3b2310f6 140:3b231015",
		"sasrec":    "148:3f3b7736 8:3f1b264f 168:3f120e12 75:3f0fb96e 190:3f01aa94 171:3f002fe0 144:3ee5f28e 172:3ee4f414 51:3ee0717d 6:3ed5d146 91:3ed2251e 165:3ed0c390 112:3ed024ba 35:3eca94a2 55:3ec9808b 53:3ec68196 4:3ec6353c 13:3ec11856 49:3ebe1e27 164:3eb3d502 175:3eaf5ab6",
		"sine":      "71:3c56b9c3 50:3c52385d 70:3c39496e 83:3c37381a 116:3c2e0b70 177:3c2af3f4 20:3c247516 28:3c205730 130:3c1f0760 121:3c1e2d4a 167:3c1d1cc3 151:3c1c243f 191:3c1ac912 100:3c19ef63 26:3c147200 58:3c12d42d 161:3c1164d1 127:3c10c9dd 89:3c0ff631 136:3c0ef0a8 180:3c0a63b3",
		"srgnn":     "71:3d040cd6 50:3d027e36 70:3cd971c3 177:3cd5395f 151:3cd2425b 20:3cd206a2 83:3cc459af 130:3cbda594 28:3cbc121a 116:3cbb08b2 87:3cb37226 167:3cb28d02 100:3caff309 89:3cad2865 34:3cac5637 191:3ca54a1f 58:3ca1c190 121:3c97c246 180:3c96f9aa 26:3c93a2cf 136:3c9229dd",
		"stamp":     "97:3a935d0d 90:3a907ebd 54:3a8ff2f4 94:3a8dce85 99:3a8914de 36:3a7b9080 108:3a7afebd 140:3a744f3e 20:3a70b82f 177:3a6d3106 68:3a6c276a 62:3a6b506a 87:3a6b4dbe 176:3a6aceca 105:3a69f76e 29:3a696c8f 152:3a5ebe07 5:3a55e590 114:3a543e54 193:3a53da69 28:3a538978",
	}
	for _, name := range Names() {
		want, ok := golden[name]
		if !ok {
			t.Fatalf("no golden for %s — add one", name)
		}
		checkGolden(t, name, Config{CatalogSize: 200, Seed: 1}, []int64{3, 17, 42, 9, 65}, want)
	}
}

// TestGoldenRecommendationsD128 pins the models whose encoders run through
// tensor.MatMulInto at the encoder_long shape (C = 1e4, d = 128, 50 clicks):
// at C = 200 the dimension is 4 and no matrix is wider than 16 columns, so
// only here do the products run over full 32-column blocks and 128-deep
// sums. The values were taken before the GEMM row kernel landed.
func TestGoldenRecommendationsD128(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("scores are pinned for amd64; compilers for other platforms may fuse multiply-adds")
	}
	golden := map[string]string{
		"gcsan":     "8252:3e75c346 5684:3e48c462 2278:3e3eda13 3799:3e3d880e 9709:3e3c808f 3647:3e3a9c7c 9053:3e380208 4699:3e355796 6091:3e353d46 4760:3e33c384 7079:3e324a3f 7013:3e2fb103 5552:3e2f968a 1707:3e2ef474 5662:3e2edc61 373:3e2d0181 1913:3e2c981a 5582:3e2a5ba0 1938:3e28459c 9882:3e263fee 5878:3e248d74",
		"lightsans": "3873:3f189a9b 5177:3f10ebba 1764:3f102f21 8828:3f0e5e4a 2236:3f0c7d99 3707:3f0c0a54 587:3f0a3ad4 9734:3f078ffc 6692:3f06aa2d 6090:3f04cc7a 6264:3f0334c6 7887:3f0307ed 2012:3f01f786 5337:3f0140ae 4530:3f00f114 6526:3f00bc25 8790:3f0094f4 4166:3f008c5e 4131:3efee836 4334:3efc6d04 731:3ef8fe03",
		"sasrec":    "6980:3f177c92 4403:3ef94578 1009:3eef265a 1323:3ee73d72 2742:3ee51eba 4925:3ee1d433 5808:3edcb156 7764:3edc8632 1253:3ed94e73 5523:3ed901bb 9901:3ed7c3c1 2063:3ed732cf 1242:3ed6745f 9080:3ed5ec26 5912:3ed1b608 557:3ed0e18a 2597:3ecfbf81 4107:3ecf59dd 6558:3ecf5882 8688:3ece070e 5233:3ecda862",
		"srgnn":     "7137:3b7ed250 4019:3b739135 5244:3b646698 491:3b61ed92 8096:3b61ba03 5999:3b619dc8 5692:3b60982a 1162:3b5e4e7a 4441:3b5ce167 8227:3b5bd42f 8095:3b56b4a4 2763:3b5509d5 2153:3b523b23 3458:3b51e5d6 8991:3b50bea6 7822:3b5077c0 4755:3b4ff0dd 3546:3b4e1cce 190:3b4cfac0 8606:3b4bbdcc 1504:3b4a5b74",
	}
	for _, name := range []string{"gcsan", "lightsans", "sasrec", "srgnn"} {
		checkGolden(t, name, Config{CatalogSize: 10_000, Dim: 128, Seed: 1}, longSession(50, 10_000), golden[name])
	}
}

// checkGolden holds the eager, staged and (where there is one) compiled
// top-k of the model name for session to want, item by item and score bit
// by score bit.
func checkGolden(t *testing.T, name string, cfg Config, session []int64, want string) {
	t.Helper()
	render := func(recs []topk.Result) string {
		var b strings.Builder
		for i, r := range recs {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d:%08x", r.Item, math.Float32bits(r.Score))
		}
		return b.String()
	}
	m, err := New(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(m.Recommend(session)); got != want {
		t.Errorf("%s: eager top-k\n got %s\nwant %s", name, got, want)
	}
	staged, _ := RecommendStaged(m, session, func() time.Duration { return 0 })
	if got := render(staged); got != want {
		t.Errorf("%s: staged top-k\n got %s\nwant %s", name, got, want)
	}
	if jc, ok := m.(JITCompilable); ok {
		if got := render(jc.CompiledRecommend()(session)); got != want {
			t.Errorf("%s: compiled top-k\n got %s\nwant %s", name, got, want)
		}
	}
}

// BenchmarkRecommend measures real single-request inference latency of
// every model on this machine's CPU, eager and JIT, at three catalog sizes:
// the live ground truth behind the Fig 3 CPU lines, the JIT ablation
// (gru4rec at C=1e6) and the evidence that latency grows linearly in C.
func BenchmarkRecommend(b *testing.B) {
	session := []int64{17, 430, 99, 17, 2048}
	for _, c := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("C=%d", c), func(b *testing.B) {
			for _, name := range Names() {
				m, err := New(name, Config{CatalogSize: c, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				b.Run(name+"/eager", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						m.Recommend(session)
					}
				})
				if jc, ok := m.(JITCompilable); ok {
					compiled := jc.CompiledRecommend()
					b.Run(name+"/jit", func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							compiled(session)
						}
					})
				}
			}
		})
	}
}
