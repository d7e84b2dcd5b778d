// Package fault provides deterministic fault schedules for the
// throughput harness (internal/bench) and the shard nodes
// (internal/node). A Plan maps (epoch, shard) to a Directive — crash
// the shard mid-epoch, slow it down by a straggle factor, drop its
// sealed MicroBlock in transit, or corrupt its StateDelta — so the same
// seed and spec reproduce the same fault schedule bit-for-bit across
// runs, on either execution engine and in either pipeline. The epoch
// pipeline (internal/shard) never reads a plan: it knows one loss, a
// MicroBlock that did not arrive. The harness applies a directive by
// withholding the block (crash, drop, corrupt) or by scaling the
// shard's execution time in its model (straggle); a shard node reads
// the same directive where it seals, and seals nothing, withholds the
// block or sends a frame the committee's checksum rejects.
//
// Determinism is by construction: a generated plan derives each
// (epoch, shard) verdict from a splitmix64 hash of (seed, epoch,
// shard) compared against integer probability thresholds fixed at
// construction time. No mutable RNG stream exists, so the verdict for
// epoch 7, shard 2 does not depend on how many draws preceded it, how
// many shards the network has, or which goroutine asks first.
// Explicit per-(epoch, shard) overrides (Set) take precedence over the
// generated schedule; a plan with a zero spec and no overrides injects
// nothing.
package fault

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Typed parse failures: callers (flag handling, config loaders) can
// errors.Is against these instead of matching message text.
var (
	// ErrBadSpec marks a syntactically malformed spec string.
	ErrBadSpec = errors.New("malformed fault spec")
	// ErrUnknownKind marks a fault kind the plan does not model.
	ErrUnknownKind = errors.New("unknown fault kind")
	// ErrProbRange marks a probability outside [0, 1], a straggle
	// factor below 1, or kind probabilities that sum past 1.
	ErrProbRange = errors.New("fault probability out of range")
)

// Kind enumerates the modeled fault directives.
type Kind uint8

const (
	// None leaves the shard healthy for the epoch.
	None Kind = iota
	// CrashMidEpoch crashes the shard during execution: it seals no
	// MicroBlock, and its whole batch is requeued.
	CrashMidEpoch
	// Straggle slows the shard's modelled execution time by Factor;
	// the MicroBlock still seals and merges normally.
	Straggle
	// DropMicroBlock loses the sealed MicroBlock in transit to the DS
	// committee; recovery is as for CrashMidEpoch.
	DropMicroBlock
	// CorruptDelta delivers a MicroBlock whose StateDelta fails the DS
	// committee's validation; the block is discarded and recovery is as
	// for CrashMidEpoch.
	CorruptDelta
)

// String returns the kind's trace-event label.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case CrashMidEpoch:
		return "crash"
	case Straggle:
		return "straggle"
	case DropMicroBlock:
		return "drop"
	case CorruptDelta:
		return "corrupt"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Lost reports whether the directive loses the shard's MicroBlock
// (crash, drop, corrupt) and therefore triggers the recovery path:
// batch requeue, unavailability backoff, and in the harness's model a
// view change.
func (k Kind) Lost() bool {
	return k == CrashMidEpoch || k == DropMicroBlock || k == CorruptDelta
}

// Directive is the plan's verdict for one (epoch, shard).
type Directive struct {
	Kind Kind
	// Factor multiplies the shard's modelled execution time when Kind is
	// Straggle (values below 1 are treated as 1).
	Factor float64
}

// Spec parameterises a generated plan: independent per-(epoch, shard)
// probabilities for each fault kind. Probabilities are cumulative in
// the order crash, drop, corrupt, straggle; ParseSpec rejects sums
// past 1 (ErrProbRange), and Generate clamps them as a last resort
// for hand-built specs.
type Spec struct {
	CrashProb    float64
	DropProb     float64
	CorruptProb  float64
	StraggleProb float64
	// StraggleFactor is the execution-time multiplier for straggling
	// shards (default 4).
	StraggleFactor float64
}

// zero reports whether the spec generates no faults.
func (s Spec) zero() bool {
	return s.CrashProb <= 0 && s.DropProb <= 0 && s.CorruptProb <= 0 && s.StraggleProb <= 0
}

type planKey struct {
	epoch uint64
	shard int
}

// Plan is a deterministic fault schedule. The zero value (or New())
// is the empty plan: it injects nothing. Plans are immutable once
// handed to a run; At is safe for concurrent use as long as no Set
// races it.
type Plan struct {
	seed int64
	spec Spec
	// Integer thresholds precomputed from the spec so At never touches
	// floating point: a 63-bit draw below crashT crashes, below dropT
	// drops, and so on.
	crashT, dropT, corruptT, straggleT uint64
	overrides                          map[planKey]Directive
}

// New returns the empty plan (no generated faults, no overrides).
func New() *Plan { return &Plan{} }

// Generate returns a plan drawing each (epoch, shard) directive from
// spec's probabilities under the given seed.
func Generate(seed int64, spec Spec) *Plan {
	if spec.StraggleFactor < 1 {
		spec.StraggleFactor = 4
	}
	p := &Plan{seed: seed, spec: spec}
	// Cumulative thresholds over the 63-bit draw space.
	const space = float64(1 << 62 * 2) // 2^63 without overflowing untyped int64 math
	cum := 0.0
	next := func(prob float64) uint64 {
		if prob < 0 {
			prob = 0
		}
		cum += prob
		if cum > 1 {
			cum = 1
		}
		return uint64(cum * space)
	}
	p.crashT = next(spec.CrashProb)
	p.dropT = next(spec.DropProb)
	p.corruptT = next(spec.CorruptProb)
	p.straggleT = next(spec.StraggleProb)
	return p
}

// Set overrides the directive for one (epoch, shard), taking
// precedence over the generated schedule. It returns the plan for
// chaining and is intended for tests and hand-written scenarios.
func (p *Plan) Set(epoch uint64, shard int, d Directive) *Plan {
	if p.overrides == nil {
		p.overrides = make(map[planKey]Directive)
	}
	p.overrides[planKey{epoch, shard}] = d
	return p
}

// Empty reports whether the plan can never inject a fault.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.overrides) == 0 && p.spec.zero())
}

// Seed returns the generation seed (0 for hand-built plans).
func (p *Plan) Seed() int64 { return p.seed }

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche over
// 64 bits, the standard seed-expansion hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// At returns the directive for (epoch, shard). It is a pure function
// of the plan: overrides first, then the seeded hash draw.
func (p *Plan) At(epoch uint64, shard int) Directive {
	if p == nil {
		return Directive{}
	}
	if d, ok := p.overrides[planKey{epoch, shard}]; ok {
		return d
	}
	if p.spec.zero() {
		return Directive{}
	}
	u := splitmix64(splitmix64(uint64(p.seed)^epoch*0x9e3779b97f4a7c15) ^ uint64(shard)*0xc2b2ae3d27d4eb4f)
	u >>= 1 // 63-bit draw
	switch {
	case u < p.crashT:
		return Directive{Kind: CrashMidEpoch}
	case u < p.dropT:
		return Directive{Kind: DropMicroBlock}
	case u < p.corruptT:
		return Directive{Kind: CorruptDelta}
	case u < p.straggleT:
		return Directive{Kind: Straggle, Factor: p.spec.StraggleFactor}
	}
	return Directive{}
}

// ParseSpec parses the shardsim -faults argument: "seed:spec" where
// spec is a comma-separated list of kind=prob entries — crash, drop,
// corrupt (probabilities in [0,1]) and straggle, which accepts an
// optional xF factor suffix (straggle=0.2x4). Examples:
//
//	7:crash=0.1
//	42:crash=0.05,drop=0.05,corrupt=0.02,straggle=0.25x8
//
// An empty spec after the colon yields the empty plan under that seed.
// Failures wrap ErrBadSpec, ErrUnknownKind or ErrProbRange; kind
// probabilities summing past 1 are an ErrProbRange error here, not a
// silent clamp.
func ParseSpec(s string) (*Plan, error) {
	seedStr, specStr, ok := strings.Cut(s, ":")
	if !ok {
		return nil, fmt.Errorf("%w: %q: want seed:kind=prob[,...]", ErrBadSpec, s)
	}
	seed, err := strconv.ParseInt(seedStr, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("%w: seed %q: %v", ErrBadSpec, seedStr, err)
	}
	var spec Spec
	if strings.TrimSpace(specStr) == "" {
		return Generate(seed, spec), nil
	}
	for _, part := range strings.Split(specStr, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("%w: entry %q: want kind=prob", ErrBadSpec, part)
		}
		if key == "straggle" {
			if pv, fv, hasFactor := strings.Cut(val, "x"); hasFactor {
				f, err := strconv.ParseFloat(fv, 64)
				if err != nil || !(f >= 1) || math.IsInf(f, 1) {
					return nil, fmt.Errorf("%w: straggle factor %q: want a number >= 1", ErrProbRange, fv)
				}
				spec.StraggleFactor = f
				val = pv
			}
		}
		prob, err := strconv.ParseFloat(val, 64)
		if err != nil || !(prob >= 0 && prob <= 1) {
			return nil, fmt.Errorf("%w: %q for %s: want a number in [0,1]", ErrProbRange, val, key)
		}
		switch key {
		case "crash":
			spec.CrashProb = prob
		case "drop":
			spec.DropProb = prob
		case "corrupt":
			spec.CorruptProb = prob
		case "straggle":
			spec.StraggleProb = prob
		default:
			return nil, fmt.Errorf("%w: %q (want crash, drop, corrupt or straggle)", ErrUnknownKind, key)
		}
	}
	if sum := spec.CrashProb + spec.DropProb + spec.CorruptProb + spec.StraggleProb; sum > 1 {
		return nil, fmt.Errorf("%w: kind probabilities sum to %g, want <= 1", ErrProbRange, sum)
	}
	return Generate(seed, spec), nil
}

// String renders the plan's generation parameters (for logs).
func (p *Plan) String() string {
	if p.Empty() {
		return "fault.Plan{empty}"
	}
	return fmt.Sprintf("fault.Plan{seed=%d crash=%g drop=%g corrupt=%g straggle=%gx%g overrides=%d}",
		p.seed, p.spec.CrashProb, p.spec.DropProb, p.spec.CorruptProb,
		p.spec.StraggleProb, p.spec.StraggleFactor, len(p.overrides))
}
