// Command shardsim runs the paper's Sec. 5.2 experiments (fig14,
// strategies, overheads), lists the workloads (workloads), drives one
// workload's persistent chain (chain), and runs a message-passing node
// cluster in one process (serve) or one role per process (node
// hub|ds|shard <i>|lookup [<i>]), loads it (hammer <url>[,<url>]) and
// reads its chain head (head <url>). Run it bare for what each
// subcommand does, and `shardsim <subcommand> -h` for its flags.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"cosplit/internal/bench"
	"cosplit/internal/fault"
	"cosplit/internal/node"
	"cosplit/internal/obs"
	"cosplit/internal/rpc"
	"cosplit/internal/shard"
	"cosplit/internal/store"
	"cosplit/internal/workload"
)

// config holds every flag of every subcommand. A subcommand binds the
// groups of fields its run reads; the others keep their defaults.
type config struct {
	epochs, txs, nodes, shards, snapEvery int
	shardGas, dsGas                       uint64
	workloads, workload, stateDir         string
	faults                                string
	plan                                  *fault.Plan // parsed from faults
	traceOut, metricsOut, pprof, hub, rpc string
	lookups, n, workers                   int
	interval                              time.Duration
	arg                                   string // the positional argument, if any
}

// bind defines the flags of one group over c's fields. A group has the
// same flags, names and meaning in every subcommand that reads it.
func (c *config) bind(fs *flag.FlagSet, group string) {
	switch group {
	case "load":
		fs.IntVar(&c.epochs, "epochs", c.epochs, "epochs per configuration (paper: 10)")
		fs.IntVar(&c.txs, "txs", c.txs, "offered load per epoch")
		fs.Uint64Var(&c.shardGas, "shard-gas", c.shardGas, "per-shard gas limit per epoch")
		fs.Uint64Var(&c.dsGas, "ds-gas", c.dsGas, "DS-committee gas limit per epoch")
	case "nodes":
		fs.IntVar(&c.nodes, "nodes", c.nodes, "nodes per shard in the modelled PBFT committees (paper: 5)")
	case "workloads":
		fs.StringVar(&c.workloads, "workloads", c.workloads, "comma-separated workloads (default: all)")
	case "genesis":
		fs.IntVar(&c.shards, "shards", c.shards, "shard count of the genesis (must match on every side of a cluster)")
		fallthrough
	case "workload":
		fs.StringVar(&c.workload, "workload", c.workload, "workload provisioned as genesis (must match on every side of a cluster)")
	case "persist":
		fs.StringVar(&c.stateDir, "state-dir", c.stateDir, "persistent state directory (a node cluster keeps one subdirectory per stateful role)")
		fs.IntVar(&c.snapEvery, "snapshot-every", c.snapEvery, "check every N committed epochs whether the journal costs as much to replay as the state has leaves, and if so fold it into a full snapshot file (0 = journal only, replayed from genesis)")
	case "faults":
		fs.StringVar(&c.faults, "faults", c.faults, `deterministic fault plan "seed:kind=prob[,...]" with kinds crash, drop, corrupt, straggle (e.g. "7:crash=0.05,straggle=0.2x4"): the harness applies it to its measured epochs, a shard node to the MicroBlocks it seals`)
	case "obs":
		fs.StringVar(&c.traceOut, "trace-out", c.traceOut, "write a JSONL epoch-trace journal of every simulated network to this file")
		fs.StringVar(&c.metricsOut, "metrics-out", c.metricsOut, "write the aggregated metrics registry as JSON to this file on exit")
		fallthrough
	case "pprof":
		fs.StringVar(&c.pprof, "pprof", c.pprof, "serve net/http/pprof on this address (e.g. localhost:6060)")
	case "hub":
		fs.StringVar(&c.hub, "hub", c.hub, "the TCP hub's address: node hub and serve listen on it (serve then runs its cluster's traffic over TCP, not in-process channels), the other node roles dial it")
	case "rpc":
		fs.StringVar(&c.rpc, "rpc", c.rpc, "serve JSON-RPC on this address (e.g. 127.0.0.1:8545)")
	case "lookups":
		fs.IntVar(&c.lookups, "lookups", c.lookups, "lookup nodes in the cluster (RPC serves from the first)")
	case "interval":
		fs.DurationVar(&c.interval, "block-interval", c.interval, "block production interval")
	case "hammer":
		fs.IntVar(&c.n, "n", c.n, "transactions to push through")
		fs.IntVar(&c.workers, "workers", c.workers, "closed-loop workers")
	}
}

// validate refuses out-of-range numbers, naming the flag, and parses
// the fault plan.
func (c *config) validate() (err error) {
	for _, v := range []struct {
		flag    string
		val, lo int
	}{
		{"shards", c.shards, 1}, {"nodes", c.nodes, 1},
		{"txs", c.txs, 0}, {"epochs", c.epochs, 0}, {"snapshot-every", c.snapEvery, 0},
		{"n", c.n, 1}, {"workers", c.workers, 1}, {"lookups", c.lookups, 1},
	} {
		if v.val < v.lo {
			return fmt.Errorf("-%s %d: must be at least %d", v.flag, v.val, v.lo)
		}
	}
	if c.interval <= 0 { // a committee with no interval produces no block
		err = fmt.Errorf("-block-interval %v: must be positive", c.interval)
	} else if c.faults != "" {
		c.plan, err = fault.ParseSpec(c.faults)
	}
	return err
}

type command struct {
	name, args string
	groups     string // the flag groups its run reads
	required   string // a flag with no usable default, if any
	run        func(c *config)
	doc        string
}

var commands = []command{
	{"fig14", "", "load nodes faults obs workloads", "", runFig14, "Fig. 14: TPS per workload under baseline and CoSplit sharding"},
	{"strategies", "", "load nodes faults obs", "", runStrategies, "Sec. 5.2.3: the ownership-vs-commutativity ablation"},
	{"overheads", "", "obs", "", runOverheads, "Sec. 5.2.2: dispatch and delta-merge overheads"},
	{"workloads", "", "", "", runWorkloads, "list the workloads"},
	{"chain", "", "workload load persist obs", "state-dir", runChain, "recover one workload's chain from -state-dir, then journal -epochs epochs of -txs transactions (-epochs 0: print the head)"},
	{"serve", "", "rpc hub lookups interval genesis persist faults pprof", "rpc", runServe, "a node cluster with a block producer and a JSON-RPC front door"},
	{"node hub", "", "hub pprof", "hub", runHub, "the directory of role names and listen addresses"},
	{"node ds", "", "hub interval genesis persist pprof", "hub", runDS, "the DS committee with the block producer"},
	{"node shard", "<i>", "hub genesis persist faults pprof", "hub", runShard, "the replica executing shard i"},
	{"node lookup", "[<i>]", "hub rpc pprof", "hub", runLookup, "a lookup (lookup-<i> for i > 0), serving JSON-RPC on -rpc if set"},
	{"hammer", "<url>[,<url>]", "genesis hammer pprof", "", runHammer, "closed-loop load against serving instances, with latency percentiles"},
	{"head", "<url>", "", "", runHead, "print a serving instance's chain head"},
}

// flagSet defines cmd's flags over c; any other flag is a parse error.
func (cmd *command) flagSet(c *config, w io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(strings.TrimSpace("shardsim "+cmd.name+" "+cmd.args), flag.ContinueOnError)
	fs.SetOutput(w)
	for _, g := range strings.Fields(cmd.groups) {
		c.bind(fs, g)
	}
	return fs
}

// parse reads a command line into its subcommand and a validated
// config, writing usage and errors to w. It starts nothing.
func parse(args []string, w io.Writer) (*command, *config, error) {
	var cmd *command
	for i := range commands {
		words := strings.Fields(commands[i].name)
		if len(args) >= len(words) && strings.Join(args[:len(words)], " ") == commands[i].name {
			cmd, args = &commands[i], args[len(words):]
			break
		}
	}
	if cmd == nil {
		fmt.Fprintln(w, "usage: shardsim <subcommand> [flags]  (shardsim <subcommand> -h lists its flags)")
		for _, cmd := range commands {
			fmt.Fprintf(w, "  %-26s %s\n", cmd.name+" "+cmd.args, cmd.doc)
		}
		return nil, nil, errors.New("no such subcommand")
	}
	c := config{epochs: 10, txs: 8000, nodes: 5, shardGas: 40_000, dsGas: 40_000, workload: "FT transfer",
		shards: 3, snapEvery: 8, lookups: 1, interval: 250 * time.Millisecond, n: 1000, workers: 8}
	fs := cmd.flagSet(&c, w)
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		c.arg, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	rest := fs.Args() // a positional argument may also follow the flags
	if c.arg == "" && len(rest) > 0 {
		c.arg, rest = rest[0], rest[1:]
	}
	err := c.validate()
	switch {
	case len(rest) > 0 || c.arg == "" && strings.HasPrefix(cmd.args, "<") || c.arg != "" && cmd.args == "":
		err = fmt.Errorf("usage: %s [flags]", fs.Name())
	case err == nil && cmd.required != "" && fs.Lookup(cmd.required).Value.String() == "":
		err = fmt.Errorf("%s needs -%s", cmd.name, cmd.required)
	}
	if err != nil {
		fmt.Fprintln(w, "shardsim:", err)
		return nil, nil, err
	}
	return cmd, &c, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run parses args and runs the subcommand. It returns the exit status:
// 2 for a command line parse refuses, before anything starts.
func run(args []string, stderr io.Writer) int {
	cmd, c, err := parse(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}
	if c.pprof != "" {
		go func() { fail(http.ListenAndServe(c.pprof, nil)) }()
		fmt.Fprintf(stderr, "shardsim: pprof on http://%s/debug/pprof/\n", c.pprof)
	}
	if c.plan != nil {
		fmt.Fprintf(stderr, "shardsim: injecting %s\n", c.plan)
	}
	cmd.run(c)
	return 0
}

// observe builds the metrics registry and, with -trace-out, the
// journal that every network of the run shares; flush writes
// -metrics-out and closes the journal.
func (c *config) observe() (reg *obs.Registry, opts []shard.Option, flush func()) {
	reg = obs.NewRegistry()
	opts = []shard.Option{shard.WithRegistry(reg)}
	flush = func() {
		if c.metricsOut != "" {
			var b bytes.Buffer
			fail(reg.Snapshot().WriteJSON(&b))
			fail(os.WriteFile(c.metricsOut, b.Bytes(), 0o644))
			fmt.Printf("wrote %s\n", c.metricsOut)
		}
	}
	if c.traceOut != "" {
		f, err := os.Create(c.traceOut)
		fail(err)
		journal, metrics := obs.NewJournal(f), flush
		opts = append(opts, shard.WithRecorder(journal))
		flush = func() {
			metrics()
			fail(journal.Close())
			fail(f.Close())
			fmt.Printf("wrote %s\n", c.traceOut)
		}
	}
	return reg, opts, flush
}

func (c *config) throughput(opts []shard.Option) bench.ThroughputConfig {
	return bench.ThroughputConfig{Epochs: c.epochs, TxsPerEpoch: c.txs, NodesPerShard: c.nodes,
		ShardGasLimit: c.shardGas, DSGasLimit: c.dsGas, Faults: c.plan, NetOptions: opts}
}

func runFig14(c *config) {
	names := split(c.workloads)
	if len(names) == 0 {
		for _, w := range workload.All() {
			names = append(names, w.Name)
		}
	}
	_, opts, flush := c.observe()
	rows, err := bench.RunFig14(c.throughput(opts), names)
	fail(err)
	bench.PrintFig14(os.Stdout, rows)
	flush()
}

func runStrategies(c *config) {
	_, opts, flush := c.observe()
	rows, err := bench.RunStrategies(c.throughput(opts))
	fail(err)
	bench.PrintStrategies(os.Stdout, rows)
	flush()
}

func runOverheads(c *config) {
	_, opts, flush := c.observe()
	r, err := bench.MeasureOverheads(5000, opts...)
	fail(err)
	bench.PrintOverheads(os.Stdout, r)
	flush()
}

func runWorkloads(*config) {
	for _, w := range workload.All() {
		fmt.Printf("%-20s (%s)\n", w.Name, w.Contract)
	}
}

// runChain provisions the deterministic genesis, recovers whatever a
// previous run journaled on top of it, then either stops (-epochs 0:
// inspect the recovered head) or resumes driving -txs per epoch with
// every committed epoch journaled.
func runChain(c *config) {
	w, err := workload.ByName(c.workload)
	fail(err)
	reg, opts, flush := c.observe()
	env, err := workload.Provision(w, true, append([]shard.Option{
		shard.WithShards(4), // the persistent chain's shard count
		shard.WithGasLimits(c.shardGas, c.dsGas),
	}, opts...)...)
	fail(err)
	st, err := store.Open(c.stateDir, store.WithSnapshotEvery(c.snapEvery), store.WithRegistry(reg))
	fail(err)
	fail(st.Recover(env.Net))
	fmt.Printf("state: recovered epoch=%d root=%s\n", env.Net.Checkpoint().Epoch, env.Net.StateRoot())
	// On a line of its own: scripts compare the line above verbatim.
	fmt.Printf("state: chain %d full, %d journaled blocks replayed\n",
		st.Chain(), reg.Counter("store.replayed_blocks").Value())
	if c.epochs > 0 {
		env.ResyncNonces()
		env.Net.AttachStateStore(st)
		committed, failed := 0, 0
		for range c.epochs {
			env.TopUp(w, c.txs)
			stats, err := env.Net.RunEpoch()
			fail(err)
			committed += stats.Committed
			failed += stats.Failed
		}
		fmt.Printf("run: %d epochs, %d committed, %d failed\n", c.epochs, committed, failed)
		fmt.Printf("state: final epoch=%d root=%s\n", env.Net.Checkpoint().Epoch, env.Net.StateRoot())
	}
	fail(st.Close())
	flush()
}

func runHammer(c *config) {
	w, err := workload.ByName(c.workload)
	fail(err)
	next, err := rpc.WorkloadStream(w, c.shards)
	fail(err)
	urls := split(c.arg)
	fmt.Fprintf(os.Stderr, "shardsim: hammering %s: %d txs over %d workers (workload %q)\n",
		strings.Join(urls, ", "), c.n, c.workers, w.Name)
	rep, err := rpc.RunHammer(rpc.HammerConfig{URLs: urls, Workers: c.workers, Total: c.n, Next: next})
	fail(err)
	rpc.PrintHammer(os.Stdout, rep)
}

func runHead(c *config) {
	cl := rpc.NewClient(c.arg)
	info, err := cl.ChainInfo()
	cl.Close()
	fail(err)
	fmt.Printf("chain: epoch=%d root=%s\n", info.Epoch, info.StateRoot)
}

func split(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// logProducerErr reports a block producer's failed epoch; the producer
// goes on ticking.
func logProducerErr(res node.TickResult) {
	if res.Err != nil {
		fmt.Fprintln(os.Stderr, "shardsim: block producer:", res.Err)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "shardsim:", err)
		os.Exit(1)
	}
}
