// Command benchmark is the repository's benchmark: submit-to-receipt
// latency and committed transactions per second of a journaled,
// TCP-connected cluster, and a per-layer ledger from a traced run.
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, result as the last line
//	benchmark [-seed N] [-seconds S] [-out FILE]                 every workload, untraced then traced
//	benchmark -compare A.jsonl B.jsonl                           judge B against A by BENCHMARK.json's bounds
//
// See README.md for the workloads, the metrics and what they include.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// buildDir is the one directory the benchmark writes in: state
// directories while a run lasts, and the trace files it leaves.
const buildDir = ".bench_build"

// setups is how many times an untraced run sets the cluster up; the
// reported setup_s is their median.
const setups = 5

// config is one run's arguments.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // 1 except in the smoke test
}

// record is one line of an -out file: a run's result with what it ran
// and where.
type record struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	FinalRoot string  `json:"final_root"`
	Host      host    `json:"host"`
	result
}

// host is where a run was measured.
type host struct {
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	StateDirFS string `json:"state_dir_fs"`
}

func hostFacts(dir string) host {
	h := host{NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), StateDirFS: "unknown"}
	var fs syscall.Statfs_t
	if err := syscall.Statfs(dir, &fs); err == nil {
		names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
		if name, ok := names[int64(fs.Type)]; ok {
			h.StateDirFS = name
		} else {
			h.StateDirFS = fmt.Sprintf("0x%x", fs.Type)
		}
	}
	return h
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the workload's random source and the arrival schedule")
	seconds := fs.Float64("seconds", 10, "length of the timed window the workload sizes were chosen for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run and its replay")
	out := fs.String("out", "", "append each run's record to this file, one JSON object per line")
	compare := fs.Bool("compare", false, "compare two -out files: benchmark -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two files"))
		}
		regressed, err := compareFiles(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	if *seconds <= 0 {
		return fail(errors.New("-seconds must be positive"))
	}
	if *workload == "all" {
		if err := runAll(*seed, *seconds, *out, stdout, stderr); err != nil {
			return fail(err)
		}
		return 0
	}
	rec, err := runOne(config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, scale: 1}, stderr)
	if err != nil {
		return fail(err)
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			return fail(err)
		}
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runAll runs every workload untraced and then traced, each in a
// process of its own so that no run inherits another's heap.
func runAll(seed int64, seconds float64, out string, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, sp := range specs {
		for trace := 0; trace <= 1; trace++ {
			args := []string{"-workload", sp.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace)}
			if out != "" {
				args = append(args, "-out", out)
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s trace %d: %w", sp.name, trace, err)
			}
		}
	}
	return nil
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runOne performs one run and returns its record, or an error if any
// output was wrong: a run that fails verification reports no numbers.
func runOne(cfg config, log io.Writer) (*record, error) {
	sp, err := specByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(buildDir, 0o777); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rec := &record{Workload: sp.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Host: hostFacts(dir)}
	fmt.Fprintf(log, "%s: seed %d, %gs, trace %v; %d processors, GOMAXPROCS %d, %s, state dir on %s; no message delay injected: latency is processor, loopback-socket and fsync time only\n",
		sp.name, cfg.seed, cfg.seconds, cfg.trace, rec.Host.NumCPU, rec.Host.GoMaxProcs, rec.Host.GoVersion, rec.Host.StateDirFS)
	if cfg.trace {
		err = runTraced(sp, cfg, dir, rec)
	} else {
		err = runUntraced(sp, cfg, dir, rec)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	printMetrics(log, sp.name, rec.Metrics)
	return rec, nil
}

// window runs one attempt through its timed window and verification.
// The caller tears it down.
func window(a *attempt) (outcome, error) {
	if err := a.measure(); err != nil {
		return outcome{}, err
	}
	if err := a.verify(); err != nil {
		return outcome{}, err
	}
	o := a.tally()
	if o.committed == 0 {
		return o, fmt.Errorf("nothing committed: %w", o.firstErr)
	}
	return o, nil
}

// runUntraced sets the cluster up several times for setup_s, then
// measures the end-to-end metrics on the last one.
func runUntraced(sp *spec, cfg config, dir string, rec *record) error {
	sz := sp.sizeFor(cfg.seconds, cfg.scale)
	var took []time.Duration
	var a *attempt
	for i := 0; i < setups; i++ {
		a = newAttempt(sp, sz, cfg.seed, nil, filepath.Join(dir, fmt.Sprint(i)))
		err := a.setUp()
		if err == nil && i < setups-1 {
			err = a.tearDown()
		}
		if err != nil {
			return errors.Join(err, a.tearDown())
		}
		took = append(took, a.setup)
	}
	o, err := window(a)
	if err = errors.Join(err, a.tearDown()); err != nil {
		return err
	}
	rec.FinalRoot = a.heads[0].root
	rec.result = result{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: a.endToEndMetrics(o, took)}
	return nil
}

// runTraced measures a third of the length twice on the same stream,
// untraced and then traced, replays what the traced attempt captured,
// and derives the per-layer metrics.
func runTraced(sp *spec, cfg config, dir string, rec *record) error {
	sz := sp.sizeFor(cfg.seconds/3, cfg.scale)
	probe, err := fsyncProbe(dir)
	if err != nil {
		return err
	}
	attempts := []*attempt{
		newAttempt(sp, sz, cfg.seed, nil, filepath.Join(dir, "plain")),
		newAttempt(sp, sz, cfg.seed, &tracer{}, filepath.Join(dir, "traced")),
	}
	outcomes := make([]outcome, len(attempts))
	for i, a := range attempts {
		// Tear each down before the next starts: a second cluster's heap
		// would be the first one's collector work.
		err := a.setUp()
		if err == nil {
			outcomes[i], err = window(a)
		}
		if err = errors.Join(err, a.tearDown()); err != nil {
			return err
		}
		// Hand the heap back, so the second attempt pays for its pages
		// as the first did.
		debug.FreeOSMemory()
	}
	plain, traced := attempts[0], attempts[1]
	// One seed, one final state. The block count is the ticker's on the
	// RPC workloads, so only harness-driven epochs must agree on it too.
	if p, t := plain.heads[0], traced.heads[0]; p.root != t.root || (sp.kind == epochLoop && p.epoch != t.epoch) {
		return fmt.Errorf("one seed, two heads: untraced ended at %+v, traced at %+v", p, t)
	}
	capt, err := traced.tr.captured()
	if err != nil {
		return err
	}
	timed := map[uint64]bool{}
	for _, t := range traced.ticks {
		if !t.start.Before(traced.begin) && !t.start.After(traced.end) {
			timed[t.epoch] = true
		}
	}
	st, replayed, err := replay(traced.w, capt, timed, filepath.Join(dir, "replay"), traced.begin)
	if err != nil {
		return err
	}
	if err := writeTrace(filepath.Join(buildDir, "trace-"+sp.name+".jsonl"), traced, replayed); err != nil {
		return err
	}
	rec.FinalRoot = traced.heads[0].root
	rec.result = result{
		Correct:   true,
		Attempted: outcomes[0].attempted + outcomes[1].attempted,
		Failed:    outcomes[0].failed + outcomes[1].failed,
		Metrics:   layerMetrics(plain, traced, outcomes[0], outcomes[1], st, capt, probe),
	}
	return nil
}
