package shard_test

import (
	"fmt"
	"testing"

	"cosplit/internal/obs"
	"cosplit/internal/shard"
)

// The compiled closure-chain executor must be observationally
// indistinguishable from the AST interpreter: identical MicroBlocks,
// receipts (success flag, gas, error string, shard, epoch), state
// roots, and per-shard gas totals. The interpreter-driven pipeline is
// the reference.

// TestCompiledVsInterpretedNetwork drives the five evaluation
// workloads under three stream seeds. For each, the reference run
// forces the interpreter (WithCompiledExecution(false)) and the
// compiled engine's run is compared against it.
func TestCompiledVsInterpretedNetwork(t *testing.T) {
	workloads := []string{
		"FT transfer",        // FungibleToken
		"NFT mint",           // NonfungibleToken
		"CF donate",          // Crowdfunding
		"ProofIPFS register", // ProofIPFS
		"UD bestow",          // UDRegistry
	}
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{1, 7, 42} {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					interp := runPipeline(t, namedWorkload(t, name, seed),
						shard.WithCompiledExecution(false))
					compiled := runPipeline(t, namedWorkload(t, name, seed))
					diffResults(t, "compiled", interp, compiled)
				})
			}
		})
	}
}

// TestCompiledEngineActuallyRuns guards against the differential test
// passing vacuously: the compiled run must be served by the fused fast
// path, and the interpreter run must never touch the compiled
// dispatch counters.
func TestCompiledEngineActuallyRuns(t *testing.T) {
	reg := obs.NewRegistry()
	runPipeline(t, namedWorkload(t, "FT transfer", 1),
		shard.WithRegistry(reg))
	snap := reg.Snapshot()
	if n := snap.Counters["compile.programs"]; n == 0 {
		t.Error("no programs compiled at deployment")
	}
	if n := snap.Counters["compile.fast_runs"]; n == 0 {
		t.Error("compiled pipeline executed no fused fast-path transitions")
	}
	if n := snap.Counters["compile.fallback_runs"]; n != 0 {
		t.Errorf("compiled pipeline fell back to the interpreter %d times", n)
	}

	regOff := obs.NewRegistry()
	runPipeline(t, namedWorkload(t, "FT transfer", 1),
		shard.WithRegistry(regOff), shard.WithCompiledExecution(false))
	snapOff := regOff.Snapshot()
	if n := snapOff.Counters["compile.fast_runs"] + snapOff.Counters["compile.generic_runs"]; n != 0 {
		t.Errorf("interpreter-only pipeline recorded %d compiled dispatches", n)
	}
}
