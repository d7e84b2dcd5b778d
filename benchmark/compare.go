package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readRecords groups an -out file's untraced runs by workload.
func readRecords(path string) (map[string][]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	return out, sc.Err()
}

// spread is the distance between the first and third quartile as a
// share of the median, the way statistics.quantiles(values, n=4) cuts
// them; 0 with fewer than two values.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	cut := func(k int) float64 { // exclusive method, as Python's default
		pos := float64(k) * float64(len(sorted)+1) / 4
		i := int(pos)
		switch {
		case i < 1:
			return sorted[0]
		case i >= len(sorted):
			return sorted[len(sorted)-1]
		}
		return sorted[i-1] + (pos-float64(i))*(sorted[i]-sorted[i-1])
	}
	return div(cut(3)-cut(1), cut(2))
}

// compareFiles prints, per workload and end-to-end metric, both
// medians, the relative change, the bound, and a verdict: regressed
// (B's median is worse than A's by more than the bound), unresolved
// (either side's spread is wider than the bound, so the medians decide
// nothing) or within. It also fails a pair of same-seed runs that
// ended on different state roots. It reports whether anything
// regressed.
func compareFiles(w io.Writer, benchmarkPath, pathA, pathB string) (regressed bool, err error) {
	raw, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return false, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return false, fmt.Errorf("%s: %w", benchmarkPath, err)
	}
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tchange\tbound\tA spread\tB spread\truns\tverdict")
	for _, wl := range bf.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		roots := map[int64]string{}
		for _, r := range ra {
			roots[r.Seed] = r.FinalRoot
		}
		for _, r := range rb {
			if root, ok := roots[r.Seed]; ok && root != r.FinalRoot {
				fmt.Fprintf(tw, "%s\tfinal_root\t%.12s\t%.12s\t\t\t\t\tseed %d\tregressed\n", wl.Name, root, r.FinalRoot, r.Seed)
				regressed = true
			}
		}
		for _, m := range bf.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			ma, mb := median(va), median(vb)
			worse := div(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "within"
			switch {
			case worse > m.Bound:
				verdict = "regressed"
				regressed = true
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%d/%d\t%s\n",
				wl.Name, m.Name, ma, mb, 100*div(mb-ma, ma), 100*m.Bound, 100*sa, 100*sb, len(va), len(vb), verdict)
		}
	}
	return regressed, tw.Flush()
}

func values(recs []*record, name string) []float64 {
	out := make([]float64, 0, len(recs))
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
