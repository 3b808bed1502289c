package shard

import (
	"testing"
	"time"

	"etude/internal/topk"
)

func TestPolicyMinShards(t *testing.T) {
	cases := []struct {
		pol  Policy
		s    int
		want int
	}{
		{Policy{}, 4, 4},                                              // fail-fast: every shard
		{Policy{Mode: PolicyPartial}, 4, 2},                           // default MinCoverage 0.5
		{Policy{Mode: PolicyPartial, MinCoverage: 0.75}, 4, 3},        // ⌈0.75·4⌉
		{Policy{Mode: PolicyPartial, MinCoverage: 0.75}, 5, 4},        // ⌈0.75·5⌉ = ⌈3.75⌉
		{Policy{Mode: PolicyPartial, MinCoverage: 0.01}, 4, 1},        // floor clamps at 1
		{Policy{Mode: PolicyPartial, MinCoverage: 1}, 4, 4},           // full coverage required
		{Policy{Mode: PolicyPartial, MinCoverage: 7}, 4, 4},           // >1 clamps to all
		{Policy{Mode: PolicyPartial, MinCoverage: 0.5}, 1, 1},         // single shard
		{Policy{Mode: PolicyFailFast, MinCoverage: 0.25}, 8, 8},       // coverage ignored fail-fast
		{Policy{Mode: PolicyPartial, MinCoverage: 0.334}, 3, 2},       // ⌈1.002⌉
	}
	for _, c := range cases {
		if got := c.pol.MinShards(c.s); got != c.want {
			t.Errorf("MinShards(%d) with %+v = %d, want %d", c.s, c.pol, got, c.want)
		}
	}
}

func TestPolicyModeString(t *testing.T) {
	if PolicyFailFast.String() != "fail-fast" || PolicyPartial.String() != "partial" {
		t.Fatalf("mode names: %q / %q", PolicyFailFast, PolicyPartial)
	}
}

func TestRecallAtK(t *testing.T) {
	oracle := []topk.Result{{Item: 1}, {Item: 2}, {Item: 3}, {Item: 4}}
	got := []topk.Result{{Item: 2}, {Item: 4}, {Item: 9}, {Item: 10}}
	if r := RecallAtK(oracle, got); r != 0.5 {
		t.Fatalf("RecallAtK = %v, want 0.5", r)
	}
	if r := RecallAtK(oracle, oracle); r != 1 {
		t.Fatalf("full-overlap recall = %v, want 1", r)
	}
	if r := RecallAtK(oracle, nil); r != 0 {
		t.Fatalf("empty answer recall = %v, want 0", r)
	}
	if r := RecallAtK(nil, got); r != 1 {
		t.Fatalf("empty-oracle recall = %v, want 1", r)
	}
}

func TestPartialResultCoverage(t *testing.T) {
	pr := &PartialResult{Answered: 3, Shards: 4}
	if pr.Coverage() != 0.75 || !pr.Partial() {
		t.Fatalf("coverage/partial = %v/%v", pr.Coverage(), pr.Partial())
	}
	full := &PartialResult{Answered: 4, Shards: 4}
	if full.Coverage() != 1 || full.Partial() {
		t.Fatalf("full coverage misreported: %v/%v", full.Coverage(), full.Partial())
	}
	if (&PartialResult{}).Coverage() != 0 {
		t.Fatal("zero-shard coverage should be 0")
	}
}

func TestGroupBreakerOpensAndProbes(t *testing.T) {
	now := 1000 * time.Second
	b := newGroupBreaker(Policy{BreakerThreshold: 3, BreakerCooldown: 500 * time.Millisecond})

	for i := 0; i < 2; i++ {
		b.report(false, now)
		if !b.allow(now) {
			t.Fatalf("breaker opened after %d failures, threshold is 3", i+1)
		}
	}
	b.report(false, now) // third consecutive failure: opens
	if b.allow(now) {
		t.Fatal("breaker still closed after reaching the threshold")
	}
	now += 499 * time.Millisecond
	if b.allow(now) {
		t.Fatal("breaker let a request through before the cooldown elapsed")
	}
	now += 2 * time.Millisecond
	if !b.allow(now) {
		t.Fatal("breaker did not allow a probe after the cooldown")
	}
	b.report(false, now) // probe failed: re-opens for another cooldown
	if b.allow(now) {
		t.Fatal("breaker closed again after a failed probe")
	}
	now += 501 * time.Millisecond
	if !b.allow(now) {
		t.Fatal("re-opened breaker did not allow the next probe")
	}
	b.report(true, now) // probe succeeded: closes and resets the failure count
	if !b.allow(now) {
		t.Fatal("breaker open after a successful probe")
	}
	b.report(false, now)
	if !b.allow(now) {
		t.Fatal("one failure after a success must not re-open the breaker")
	}
}

func TestGroupBreakerDisabled(t *testing.T) {
	b := newGroupBreaker(Policy{BreakerThreshold: -1})
	for i := 0; i < 10; i++ {
		b.report(false, 0)
	}
	if !b.allow(0) {
		t.Fatal("disabled breaker must always allow")
	}
	var nilB *groupBreaker
	if !nilB.allow(0) {
		t.Fatal("nil breaker must allow")
	}
	nilB.report(false, 0) // must not panic
}

func TestStaticPicker(t *testing.T) {
	p := NewStaticPicker("a", "b", "c")
	got := []string{p.PickURL(), p.PickURL(), p.PickURL(), p.PickURL()}
	want := []string{"a", "b", "c", "a"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation = %v, want %v", got, want)
		}
	}
	p.Report("a", false) // no health state; must not panic
	if empty := NewStaticPicker(); empty.PickURL() != "" {
		t.Fatal("empty picker must return \"\"")
	}
}
