package main

import (
	"encoding/json"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cosplit/internal/shard"
	"cosplit/internal/wire"
	"cosplit/internal/workload"
)

// smoke is every workload at about 1 % of its size: a handful of
// transactions per epoch, a few dozen over RPC.
var smoke = config{seed: 7, seconds: 1, scale: 0.02}

// TestMain removes what the runs leave in the package directory: state
// directories are gone already, the trace files are not.
func TestMain(m *testing.M) {
	code := m.Run()
	os.RemoveAll(buildDir)
	os.Exit(code)
}

// TestSmoke drives all five workloads untraced and traced and applies
// the benchmark's own output checks (runOne fails on any of them):
// every receipt fetched over RPC, every role on one epoch and root, the
// untraced and traced attempts of one seed on one root, every replayed
// epoch on its captured root.
func TestSmoke(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			cfg := smoke
			cfg.workload = sp.name
			plain, err := runOne(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkRecord(t, plain, endToEnd)
			for name, m := range plain.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}

			cfg.trace = true
			traced, err := runOne(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkRecord(t, traced, perLayer)
			if _, err := os.Stat(filepath.Join(buildDir, "trace-"+sp.name+".jsonl")); err != nil {
				t.Error(err)
			}
			if ds := traced.Metrics["dispatch.ds_share"].Value; (ds > 0.5) != (sp.name == "epoch_ipfs_ds") {
				t.Errorf("dispatch.ds_share = %v: only epoch_ipfs_ds should route most transactions to the DS committee", ds)
			}

			// One seed, one run: whatever does not depend on timing repeats exactly.
			again, err := runOne(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if again.FinalRoot != traced.FinalRoot {
				t.Errorf("final root %s then %s under one seed", traced.FinalRoot, again.FinalRoot)
			}
			if again.Attempted != traced.Attempted {
				t.Errorf("attempted %d then %d under one seed", traced.Attempted, again.Attempted)
			}
			if sp.kind == epochLoop {
				for _, name := range []string{"bench.samples", "dispatch.ds_share", "node.frames_per_tx", "node.epochs"} {
					if a, b := traced.Metrics[name].Value, again.Metrics[name].Value; a != b {
						t.Errorf("%s = %v then %v under one seed", name, a, b)
					}
				}
			}
		})
	}
}

func checkRecord(t *testing.T, rec *record, want map[string]string) {
	t.Helper()
	if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
		t.Errorf("correct %v, attempted %d, failed %d", rec.Correct, rec.Attempted, rec.Failed)
	}
	if len(rec.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(rec.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := rec.Metrics[name]
		if !ok || m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %+v (present %v), want a finite value in %s", name, m, ok, unit)
		}
	}
}

// TestStreamRepeats pins the generator: one seed gives one stream,
// another seed another (where the workload draws from its seed at all).
func TestStreamRepeats(t *testing.T) {
	for _, sp := range specs {
		hash := func(seed int64) uint64 {
			sz := sp.sizeFor(1, smoke.scale)
			w := sp.gen()
			w.Seed, w.Users = seed, sz.users
			env, err := workload.Provision(w, true, shard.WithShards(numShards))
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, tx := range generate(sp, w, env, sz).txs {
				b, err := wire.EncodeTx(tx)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(b)
			}
			return h.Sum64()
		}
		if a, b := hash(7), hash(7); a != b {
			t.Errorf("%s: seed 7 hashed to %x then %x", sp.name, a, b)
		}
		if strings.HasPrefix(sp.name, "rpc_") && hash(7) == hash(8) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", sp.name)
		}
	}
}

// TestBenchmarkFile keeps BENCHMARK.json and the program on the same
// workloads, metric names and units.
func TestBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, specs[i].name)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit string }, want map[string]string) {
		if len(listed) != len(want) {
			t.Errorf("%d %s metrics in BENCHMARK.json, %d in the program", len(listed), kind, len(want))
		}
		for _, m := range listed {
			if want[m.Name] != m.Unit {
				t.Errorf("%s metric %s: BENCHMARK.json says %q, the program %q", kind, m.Name, m.Unit, want[m.Name])
			}
		}
	}
	check("end-to-end", bf.EndToEnd, endToEnd)
	check("per-layer", bf.PerLayer, perLayer)
}

// TestCompare runs the comparison over two hand-made files: one metric
// within its bound, one regressed, one whose spread decides nothing.
func TestCompare(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	if err := os.MkdirAll(buildDir, 0o777); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp(buildDir, "compare-")
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, tps, p50 []float64) string {
		path := filepath.Join(dir, name)
		for i := range tps {
			rec := &record{Workload: "rpc_open_ft", Seed: int64(i), FinalRoot: "r", result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{
				"committed_tps": {tps[i], "1/s"}, "commit_p50_ms": {p50[i], "ms"}, "commit_p90_ms": {50, "ms"},
				"cpu_ms_per_ktx": {400, "ms"}, "live_heap_mb": {90, "MB"}, "setup_s": {0.2, "s"},
			}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", []float64{2000, 2010, 1990}, []float64{30, 31, 32})
	b := write("b.jsonl", []float64{1400, 1410, 1390}, []float64{20, 31, 45})
	var out strings.Builder
	regressed, err := compareFiles(&out, "../BENCHMARK.json", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Error("a 30 % drop in committed_tps did not count as a regression")
	}
	for _, want := range []string{"committed_tps", "regressed", "unresolved", "within"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison output lacks %q:\n%s", want, out.String())
		}
	}
	if regressed, err = compareFiles(io.Discard, "../BENCHMARK.json", a, a); err != nil || regressed {
		t.Errorf("a file against itself: regressed %v, err %v", regressed, err)
	}
}
