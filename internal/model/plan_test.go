package model

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"etude/internal/topk"
)

// compilableNames returns every registered model with a compiled plan.
func compilableNames(t testing.TB) []string {
	var names []string
	for _, name := range Names() {
		m, err := New(name, Config{CatalogSize: 10, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := m.(JITCompilable); ok {
			names = append(names, name)
		}
	}
	return names
}

// sameResults reports the first difference between two top-k lists, item
// and score bits, or "" when they agree.
func sameResults(got, want []topk.Result) string {
	if len(got) != len(want) {
		return "length differs"
	}
	for i := range want {
		if got[i].Item != want[i].Item || math.Float32bits(got[i].Score) != math.Float32bits(want[i].Score) {
			return fmt.Sprintf("rank %d: %d:%08x, want %d:%08x", i,
				got[i].Item, math.Float32bits(got[i].Score), want[i].Item, math.Float32bits(want[i].Score))
		}
	}
	return ""
}

// perCall measures the heap bytes and allocations of one call of f, averaged
// over n calls after a warm-up call; like testing.AllocsPerRun it runs on
// one P, so other goroutines' allocations hardly interleave.
func perCall(n int, f func()) (bytes, allocs float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / float64(n), float64(b.Mallocs-a.Mallocs) / float64(n)
}

// TestCompiledPlanAllocations is the allocation ratchet of the compiled
// plans at the encoder_long shape (C = 1e4, d = 128, 50 clicks). sasrec,
// gru4rec, narm and repeatnet run out of plan-owned buffers and allocate
// little more than the list they return. The other plans still wrap the
// eager encoder; their ceilings sit just above what they allocate, so that
// nothing grows unnoticed, and come down as those plans get buffers of
// their own (srgnn and gcsan transpose their GGNN gate per node).
func TestCompiledPlanAllocations(t *testing.T) {
	ceilings := map[string]struct{ bytes, allocs float64 }{
		"core":      {29_500, 20},
		"gcsan":     {31_000_000, 1_330},
		"gru4rec":   {512, 2},
		"narm":      {512, 2},
		"repeatnet": {1_024, 4},
		"sasrec":    {512, 2},
		"sine":      {130_000, 79},
		"srgnn":     {30_800_000, 1_320},
		"stamp":     {358_000, 260},
	}
	rng := rand.New(rand.NewSource(5))
	session := make([]int64, 50)
	for i := range session {
		session[i] = rng.Int63n(10_000)
	}
	for _, name := range compilableNames(t) {
		ceil, ok := ceilings[name]
		if !ok {
			t.Errorf("%s: no allocation ceiling — add one", name)
			continue
		}
		if (testing.Short() || raceEnabled) && ceil.bytes > 1e6 {
			continue
		}
		m, err := New(name, Config{CatalogSize: 10_000, Dim: 128, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		plan := m.(JITCompilable).CompiledRecommend()
		bytes, allocs := perCall(5, func() { plan(session) })
		if bytes > ceil.bytes || allocs > ceil.allocs {
			t.Errorf("%s plan: %.0f B in %.1f allocations per call, ceiling %.0f B in %.0f", name, bytes, allocs, ceil.bytes, ceil.allocs)
		}
	}
}

// TestSASRecWorkspaceRetained: the workspace of a compiled sasrec plan is
// (6·L·d + L²)·4 = 160 KB at d = 128, L = 50; with the scan scratch the
// plan must keep under 200 KB alive, one plan per serving worker.
func TestSASRecWorkspaceRetained(t *testing.T) {
	m, err := New("sasrec", Config{CatalogSize: 10_000, Dim: 128, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	session := longSession(50, 10_000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	plan := m.(JITCompilable).CompiledRecommend()
	plan(session)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(plan)
	if kb := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / 1024; kb > 200 {
		t.Errorf("compiled sasrec plan retains %.0f KB after a 50-click session, want at most 200", kb)
	}
}

// TestCompiledMatchesEagerAllLengths runs one reused plan per model through
// every session length from 0 to MaxSessionLen+1 in shuffled order, the
// longest first, so a workspace row left over from a longer session would
// surface in a shorter one; every answer must equal eager Recommend bit
// for bit: for two seeds at the heuristic dimension, once more with the
// faithful variants (RepeatNet's dense scatter), and for one seed at
// d = 128.
func TestCompiledMatchesEagerAllLengths(t *testing.T) {
	const catalog = 300
	cases := []Config{
		{CatalogSize: catalog, Seed: 1},
		{CatalogSize: catalog, Seed: 2},
		{CatalogSize: catalog, Seed: 3, Faithful: true},
		{CatalogSize: catalog, Seed: 1, Dim: 128},
	}
	if raceEnabled {
		cases = cases[:3]
	}
	for _, name := range compilableNames(t) {
		for _, cfg := range cases {
			m, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			plan := m.(JITCompilable).CompiledRecommend()
			maxLen := m.Config().MaxSessionLen
			rng := rand.New(rand.NewSource(cfg.Seed))
			for _, n := range append([]int{maxLen + 1}, rng.Perm(maxLen+2)...) {
				session := make([]int64, n)
				for i := range session {
					session[i] = rng.Int63n(catalog)
				}
				if diff := sameResults(plan(session), m.Recommend(session)); diff != "" {
					t.Fatalf("%s seed %d d %d, %d clicks: compiled and eager differ: %s", name, cfg.Seed, m.Config().Dim, n, diff)
				}
			}
		}
	}
}

// FuzzCompiledMatchesEager feeds arbitrary sessions, one byte per click,
// through reused compiled plans of every model and holds each answer to
// eager Recommend bit for bit.
func FuzzCompiledMatchesEager(f *testing.F) {
	const catalog = 64
	type pair struct {
		m    Model
		plan func([]int64) []topk.Result
	}
	var plans []pair
	for _, name := range compilableNames(f) {
		m, err := New(name, Config{CatalogSize: catalog, Dim: 8, Seed: 7})
		if err != nil {
			f.Fatal(err)
		}
		plans = append(plans, pair{m, m.(JITCompilable).CompiledRecommend()})
	}
	f.Add([]byte{})
	f.Add([]byte{3})
	f.Add([]byte{1, 2, 1, 3, 2, 1})
	f.Add(make([]byte, 60))
	f.Fuzz(func(t *testing.T, raw []byte) {
		session := make([]int64, len(raw))
		for i, b := range raw {
			session[i] = int64(b) % catalog
		}
		for _, p := range plans {
			if diff := sameResults(p.plan(session), p.m.Recommend(session)); diff != "" {
				t.Fatalf("%s, session %v: compiled and eager differ: %s", p.m.Name(), session, diff)
			}
		}
	})
}

// TestCompiledEncodeMatchesEncode: every compilable model but RepeatNet
// exposes the encode half of its plan, and that half returns Encode's
// representation bit for bit through one reused plan, so scoring it with
// topk.TopK — alone or in a topk.Scanner.TopKBatch — answers as Recommend.
func TestCompiledEncodeMatchesEncode(t *testing.T) {
	sessions := [][]int64{{3, 17, 42, 9}, {}, {5}, longSession(60, 300), {1, 2, 1, 3, 2, 1}}
	for _, name := range compilableNames(t) {
		m, err := New(name, Config{CatalogSize: 300, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		ce, ok := m.(CompiledEncoder)
		if ok == (name == "repeatnet") {
			t.Fatalf("%s: CompiledEncoder is %v, want it on every compilable model but repeatnet", name, ok)
		}
		if !ok {
			continue
		}
		encode := ce.CompiledEncode()
		for _, session := range sessions {
			got, want := encode(session), m.(Encoder).Encode(session)
			for i, v := range want.Data() {
				if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
					t.Fatalf("%s, %d clicks: component %d is %08x, want %08x", name, len(session), i, math.Float32bits(got.Data()[i]), math.Float32bits(v))
				}
			}
			if diff := sameResults(topk.TopK(ce.ItemEmbeddings(), got, m.Config().TopK), m.Recommend(session)); diff != "" {
				t.Fatalf("%s, %d clicks: encode+scan and Recommend differ: %s", name, len(session), diff)
			}
		}
	}
}
