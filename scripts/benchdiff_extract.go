//go:build ignore

// benchdiff_extract prints the gating metric of a BENCH_state.json
// report as "state_tps <value>": the minimum committed TPS across the
// paged rows at the grid's default (largest) budget (higher is better).
// Helper for scripts/benchdiff.sh; kept in Go so the comparison needs no
// jq.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

type report struct {
	Schema string `json:"schema"`
	Rows   []struct {
		Paged  bool    `json:"paged"`
		Budget int64   `json:"budget"`
		TPS    float64 `json:"tps"`
	} `json:"rows"`
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff_extract FILE.json")
		os.Exit(2)
	}
	raw, err := os.ReadFile(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	switch {
	case strings.HasPrefix(r.Schema, "cosplit-state-bench/"):
	case strings.HasPrefix(r.Schema, "cosplit-epoch-bench/"):
		fmt.Fprintf(os.Stderr, "%s is an epoch-bench report (%s): that benchmark and its exec_max gate are retired; "+
			"the 4000-tx epoch is measured by `bash benchmark/run.sh --workload epoch_ft_sharded` and judged with its -compare\n",
			os.Args[1], r.Schema)
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "%s: unknown report schema %q\n", os.Args[1], r.Schema)
		os.Exit(2)
	}
	// The default budget is the largest the grid measured
	// (DefaultStateBenchConfig puts pager.DefaultBudget at the end);
	// the gate takes the worst paged cell at that budget so a
	// regression at any population trips it.
	var budget int64
	for _, row := range r.Rows {
		if row.Paged && row.Budget > budget {
			budget = row.Budget
		}
	}
	minTPS, found := 0.0, false
	for _, row := range r.Rows {
		if row.Paged && row.Budget == budget && (!found || row.TPS < minTPS) {
			minTPS, found = row.TPS, true
		}
	}
	if !found {
		fmt.Fprintln(os.Stderr, "no paged rows found")
		os.Exit(2)
	}
	fmt.Printf("state_tps %g\n", minTPS)
}
