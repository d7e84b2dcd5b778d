package fault

import (
	"errors"
	"math"
	"testing"
)

// TestEmptyPlanInjectsNothing: nil plans, New(), and zero-spec
// generated plans all return None everywhere.
func TestEmptyPlanInjectsNothing(t *testing.T) {
	var nilPlan *Plan
	for _, p := range []*Plan{nilPlan, New(), Generate(42, Spec{})} {
		if !p.Empty() {
			t.Errorf("plan %v not Empty", p)
		}
		for epoch := uint64(1); epoch <= 64; epoch++ {
			for shard := 0; shard < 16; shard++ {
				if d := p.At(epoch, shard); d.Kind != None {
					t.Fatalf("empty plan injected %v at (%d, %d)", d.Kind, epoch, shard)
				}
			}
		}
	}
}

// TestGeneratedPlanDeterministic: the same seed and spec yield the
// same directive at every coordinate, independently of query order.
func TestGeneratedPlanDeterministic(t *testing.T) {
	spec := Spec{CrashProb: 0.1, DropProb: 0.1, CorruptProb: 0.05, StraggleProb: 0.2, StraggleFactor: 4}
	a := Generate(7, spec)
	b := Generate(7, spec)
	// Query b backwards to prove verdicts do not depend on draw order.
	for epoch := uint64(100); epoch >= 1; epoch-- {
		for shard := 15; shard >= 0; shard-- {
			if got, want := b.At(epoch, shard), a.At(epoch, shard); got != want {
				t.Fatalf("(%d, %d): %+v vs %+v", epoch, shard, got, want)
			}
		}
	}
	c := Generate(8, spec)
	same := 0
	total := 0
	for epoch := uint64(1); epoch <= 100; epoch++ {
		for shard := 0; shard < 16; shard++ {
			total++
			if c.At(epoch, shard) == a.At(epoch, shard) {
				same++
			}
		}
	}
	if same == total {
		t.Error("seeds 7 and 8 generated identical schedules")
	}
}

// TestGeneratedRatesRoughlyMatchSpec: over many draws the empirical
// fault mix approaches the configured probabilities.
func TestGeneratedRatesRoughlyMatchSpec(t *testing.T) {
	spec := Spec{CrashProb: 0.1, DropProb: 0.05, CorruptProb: 0.05, StraggleProb: 0.2}
	p := Generate(1234, spec)
	counts := map[Kind]int{}
	const epochs, shards = 2000, 8
	for epoch := uint64(1); epoch <= epochs; epoch++ {
		for shard := 0; shard < shards; shard++ {
			counts[p.At(epoch, shard).Kind]++
		}
	}
	total := float64(epochs * shards)
	check := func(k Kind, want float64) {
		got := float64(counts[k]) / total
		if math.Abs(got-want) > 0.02 {
			t.Errorf("%v rate = %.3f, want ~%.2f", k, got, want)
		}
	}
	check(CrashMidEpoch, spec.CrashProb)
	check(DropMicroBlock, spec.DropProb)
	check(CorruptDelta, spec.CorruptProb)
	check(Straggle, spec.StraggleProb)
	if counts[Straggle] > 0 {
		// Straggle directives carry the default factor.
		for epoch := uint64(1); epoch <= epochs; epoch++ {
			if d := p.At(epoch, 0); d.Kind == Straggle {
				if d.Factor != 4 {
					t.Errorf("default straggle factor = %g, want 4", d.Factor)
				}
				break
			}
		}
	}
}

// TestOverridesWin: Set takes precedence over the generated schedule
// and works on the empty plan.
func TestOverridesWin(t *testing.T) {
	p := Generate(7, Spec{CrashProb: 1})
	p.Set(3, 1, Directive{Kind: Straggle, Factor: 2})
	if d := p.At(3, 1); d.Kind != Straggle || d.Factor != 2 {
		t.Errorf("override ignored: %+v", d)
	}
	if d := p.At(3, 0); d.Kind != CrashMidEpoch {
		t.Errorf("generated schedule lost under overrides: %+v", d)
	}
	q := New().Set(1, 0, Directive{Kind: DropMicroBlock})
	if q.Empty() {
		t.Error("plan with overrides reported Empty")
	}
	if d := q.At(1, 0); d.Kind != DropMicroBlock {
		t.Errorf("override on empty plan: %+v", d)
	}
	if d := q.At(2, 0); d.Kind != None {
		t.Errorf("non-overridden slot faulted: %+v", d)
	}
}

// TestParseSpec round-trips the shardsim flag syntax.
func TestParseSpec(t *testing.T) {
	p, err := ParseSpec("42:crash=0.1,drop=0.05,corrupt=0.02,straggle=0.25x8")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed() != 42 {
		t.Errorf("seed = %d, want 42", p.Seed())
	}
	if p.spec.CrashProb != 0.1 || p.spec.DropProb != 0.05 ||
		p.spec.CorruptProb != 0.02 || p.spec.StraggleProb != 0.25 || p.spec.StraggleFactor != 8 {
		t.Errorf("spec = %+v", p.spec)
	}
	if p2, err := ParseSpec("7:"); err != nil || !p2.Empty() {
		t.Errorf("empty spec: plan %v err %v", p2, err)
	}
	for _, tc := range []struct {
		spec string
		want error
	}{
		{"", ErrBadSpec},                       // no seed separator
		{"x:crash=0.1", ErrBadSpec},            // non-numeric seed
		{"1:crash", ErrBadSpec},                // no probability
		{"1:crash=2", ErrProbRange},            // probability > 1
		{"1:crash=-0.1", ErrProbRange},         // probability < 0
		{"1:crash=abc", ErrProbRange},          // non-numeric probability
		{"1:flood=0.1", ErrUnknownKind},        // unmodeled kind
		{"1:straggle=0.1x0.5", ErrProbRange},   // factor < 1
		{"1:straggle=0.1xzz", ErrProbRange},    // non-numeric factor
		{"1:crash=0.6,drop=0.6", ErrProbRange}, // kinds sum past 1
		{"7:crash=NaN", ErrProbRange},          // NaN probability
		{"7:straggle=0.5xNaN", ErrProbRange},   // NaN factor
		{"7:straggle=0.5xInf", ErrProbRange},   // infinite factor
	} {
		_, err := ParseSpec(tc.spec)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted", tc.spec)
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("ParseSpec(%q) = %v, want %v", tc.spec, err, tc.want)
		}
	}
	// A spec whose kinds sum to exactly 1 is the boundary case and
	// stays legal.
	if _, err := ParseSpec("1:crash=0.5,drop=0.5"); err != nil {
		t.Errorf("ParseSpec at sum == 1: %v", err)
	}
}

// TestLostClassification: exactly the three block-loss kinds trigger
// recovery.
func TestLostClassification(t *testing.T) {
	for k, want := range map[Kind]bool{
		None: false, Straggle: false,
		CrashMidEpoch: true, DropMicroBlock: true, CorruptDelta: true,
	} {
		if k.Lost() != want {
			t.Errorf("%v.Lost() = %v, want %v", k, k.Lost(), want)
		}
	}
}
