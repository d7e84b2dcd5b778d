package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"cosplit/internal/contracts"
	"cosplit/internal/core/analysis"
	"cosplit/internal/core/ge"
	"cosplit/internal/scilla/parser"
	"cosplit/internal/scilla/typecheck"
)

// PipelineTiming is one row of Fig. 12: the time spent in each
// contract-deployment stage.
type PipelineTiming struct {
	Contract  string
	Parse     time.Duration
	Typecheck time.Duration
	Analysis  time.Duration
}

// Total returns the full deployment-pipeline time.
func (p PipelineTiming) Total() time.Duration {
	return p.Parse + p.Typecheck + p.Analysis
}

// MeasurePipeline runs the deployment pipeline `rounds` times for one
// contract and returns per-stage averages (the paper averages over
// 1000 runs).
func MeasurePipeline(name string, rounds int) (*PipelineTiming, error) {
	e, err := contracts.Get(name)
	if err != nil {
		return nil, err
	}
	out := &PipelineTiming{Contract: name}
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		m, err := parser.ParseModule(e.Source)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		chk, err := typecheck.Check(m)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		a, err := analysis.New(chk)
		if err != nil {
			return nil, err
		}
		if _, err := a.AnalyzeAll(); err != nil {
			return nil, err
		}
		t3 := time.Now()
		out.Parse += t1.Sub(t0)
		out.Typecheck += t2.Sub(t1)
		out.Analysis += t3.Sub(t2)
	}
	out.Parse /= time.Duration(rounds)
	out.Typecheck /= time.Duration(rounds)
	out.Analysis /= time.Duration(rounds)
	return out, nil
}

// RunFig12 measures the pipeline for every corpus contract.
func RunFig12(rounds int) ([]*PipelineTiming, error) {
	var out []*PipelineTiming
	for _, e := range contracts.All() {
		t, err := MeasurePipeline(e.Name, rounds)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		out = append(out, t)
	}
	// The paper's figure is sorted by total time, descending.
	sort.Slice(out, func(i, j int) bool { return out[i].Total() > out[j].Total() })
	return out, nil
}

// PrintFig12 renders the per-stage timings (µs) plus the Sec. 5.1.1
// aggregate: the analysis overhead relative to parse+typecheck.
func PrintFig12(out io.Writer, rows []*PipelineTiming) {
	fmt.Fprintf(out, "%-24s %10s %12s %12s %9s\n", "contract", "parse(µs)", "typecheck(µs)", "analysis(µs)", "overhead")
	var base, ana time.Duration
	for _, r := range rows {
		overhead := float64(r.Analysis) / float64(r.Parse+r.Typecheck) * 100
		fmt.Fprintf(out, "%-24s %10.1f %12.1f %12.1f %8.1f%%\n",
			r.Contract,
			float64(r.Parse.Nanoseconds())/1e3,
			float64(r.Typecheck.Nanoseconds())/1e3,
			float64(r.Analysis.Nanoseconds())/1e3,
			overhead)
		base += r.Parse + r.Typecheck
		ana += r.Analysis
	}
	fmt.Fprintf(out, "\nSec 5.1.1: analysis adds %.0f%% to total deployment time (paper: ~46%%)\n",
		float64(ana)/float64(base+ana)*100)
}

// GEStats computes the Fig. 13 statistics and the Sec. 5.2 table rows
// for a set of contracts.
type GEStats struct {
	Contract       string
	LOC            int
	NumTransitions int
	LargestGE      int
	MaximalGE      int
}

// RunGE computes GE statistics for the named contracts (all corpus
// contracts if names is empty).
func RunGE(names []string) ([]*GEStats, error) {
	if len(names) == 0 {
		for _, e := range contracts.All() {
			names = append(names, e.Name)
		}
	}
	var out []*GEStats
	for _, name := range names {
		e, err := contracts.Get(name)
		if err != nil {
			return nil, err
		}
		chk := contracts.MustParse(name)
		a, err := analysis.New(chk)
		if err != nil {
			return nil, err
		}
		sums, err := a.AnalyzeAll()
		if err != nil {
			return nil, err
		}
		var fields []string
		for f := range chk.FieldTypes {
			fields = append(fields, f)
		}
		fields = append(fields, "_balance")
		res, err := ge.Analyze(name, sums, fields)
		if err != nil {
			return nil, err
		}
		out = append(out, &GEStats{
			Contract:       name,
			LOC:            contracts.LinesOfCode(e.Source),
			NumTransitions: res.NumTransitions,
			LargestGE:      res.LargestGE,
			MaximalGE:      res.MaximalGE,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Contract < out[j].Contract })
	return out, nil
}

// PrintFig13 renders the Fig. 13a/13b series: (#transitions, largest
// GE size) and (#transitions, #maximal GE signatures) per contract.
func PrintFig13(out io.Writer, stats []*GEStats) {
	fmt.Fprintf(out, "%-24s %12s %12s %12s\n", "contract", "#transitions", "largest-GE", "#maximal-GE")
	for _, s := range stats {
		fmt.Fprintf(out, "%-24s %12d %12d %12d\n", s.Contract, s.NumTransitions, s.LargestGE, s.MaximalGE)
	}
}

// PrintTable52 renders the Sec. 5.2 contract table for the five
// evaluation contracts.
func PrintTable52(out io.Writer, stats []*GEStats) {
	fmt.Fprintf(out, "%-20s %6s %8s %10s %10s\n", "Contract", "LOC", "#Trans", "Larg.GES", "#Max.GES")
	for _, s := range stats {
		fmt.Fprintf(out, "%-20s %6d %8d %10d %10d\n",
			s.Contract, s.LOC, s.NumTransitions, s.LargestGE, s.MaximalGE)
	}
}

// TransitionHistogram returns the Sec. 5.1.2 bar chart data: how many
// corpus contracts have n transitions.
func TransitionHistogram() (map[int]int, error) {
	all, err := contracts.ParseAll()
	if err != nil {
		return nil, err
	}
	hist := make(map[int]int)
	for _, chk := range all {
		hist[len(chk.Module.Contract.Transitions)]++
	}
	return hist, nil
}

// PrintHistogram renders the transition histogram.
func PrintHistogram(out io.Writer, hist map[int]int) {
	var keys []int
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	fmt.Fprintf(out, "%-13s %s\n", "#transitions", "#contracts")
	for _, k := range keys {
		fmt.Fprintf(out, "%-13d ", k)
		for i := 0; i < hist[k]; i++ {
			fmt.Fprint(out, "█")
		}
		fmt.Fprintf(out, " %d\n", hist[k])
	}
}
