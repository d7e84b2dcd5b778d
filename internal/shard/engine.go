package shard

import (
	"cosplit/internal/chain"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/value"
)

// runTransition dispatches one transition call through the contract's
// compiled closure-chain program when compiled execution is enabled
// (the default), and through the AST-walking interpreter otherwise.
// Both engines are bit-identical in results, gas accounting, error
// behaviour and state effects, so shard runs and the DS committee's run
// can switch freely.
func runTransition(cfg *Config, c *chain.Contract, ctx *eval.Context, transition string, args map[string]value.Value) (eval.Result, error) {
	if cfg.CompiledExecution && c.Compiled != nil {
		return c.Compiled.Run(ctx, transition, args)
	}
	r, err := c.Interp.Run(ctx, transition, args)
	if err != nil {
		return eval.Result{}, err
	}
	return *r, nil
}
