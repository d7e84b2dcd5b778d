// Command shardsim runs the sharded-blockchain throughput experiments:
// Fig. 14 (TPS per workload under baseline and CoSplit sharding), the
// Sec. 5.2.2 overhead measurements and the Sec. 5.2.3 ownership-vs-
// commutativity ablation.
//
// Observability: -trace-out streams every simulated network's epoch
// events as a JSONL journal, -metrics-out dumps the aggregated metrics
// registry as JSON on exit, and -pprof serves net/http/pprof for host
// profiling of the simulator itself.
//
// Chaos: -faults seed:spec injects a deterministic fault schedule
// (crashed shards, dropped MicroBlocks, corrupt deltas, stragglers)
// into the measured epochs of the Fig. 14 and -strategies runs, e.g.
// -faults "7:crash=0.05,drop=0.02,straggle=0.2x4", and into the shard
// nodes of -serve and -node shard:<i>. A shard the plan loses hands
// the pipeline no MicroBlock: the throughput harness withholds it, a
// shard node seals nothing, drops it or sends it corrupted. A
// straggler slows only the harness's modelled clock. The same seed and
// spec reproduce the same fault schedule bit-for-bit on either
// execution engine and in either pipeline. -nodes sizes the modelled
// PBFT committees of the Fig. 14 and -strategies runs.
//
// Persistence: -state-dir attaches the append-only state store to one
// workload's chain: the run recovers from the directory, then drives
// -epochs epochs of -txs transactions each, journaling every committed
// epoch (-epochs 0 recovers and prints the chain head without driving
// load); -serve persists every stateful node under per-role
// subdirectories. -snapshot-every sets the snapshot/compaction cadence.
//
// Node mode: -serve addr boots a message-passing node cluster (DS
// committee, shard nodes, lookup) with a block producer and a
// JSON-RPC front door; -serve-tcp additionally runs the cluster's
// internal traffic over real TCP sockets. -hammer url runs the
// closed-loop load generator against a serving instance and reports
// submit-to-commit latency percentiles. Both sides provision the
// -rpc-workload genesis deterministically, so the hammer's stream is
// valid against the server's chain. The node modes (-serve, -node,
// -hammer) do not take -trace-out or -metrics-out yet and refuse them
// by name rather than run without them; -hammer and the -node roles
// other than shard:<i> run no shard and refuse -faults; -state-dir
// refuses -faults and -nodes, and -overheads refuses -faults, for the
// same reason.
package main

import (
	"flag"
	"fmt"
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

func main() {
	var (
		epochs     = flag.Int("epochs", 10, "epochs per configuration (paper: 10)")
		txs        = flag.Int("txs", 8000, "offered load per epoch")
		shardGas   = flag.Uint64("shard-gas", 40_000, "per-shard gas limit per epoch")
		dsGas      = flag.Uint64("ds-gas", 40_000, "DS-committee gas limit per epoch")
		nodes      = flag.Int("nodes", 5, "nodes per shard in the modelled PBFT committees of the Fig. 14 and -strategies runs (paper: 5)")
		workloads  = flag.String("workloads", "", "comma-separated workloads (default: all)")
		overheads  = flag.Bool("overheads", false, "measure Sec. 5.2.2 overheads instead of Fig. 14")
		strategy   = flag.Bool("strategies", false, "run the Sec. 5.2.3 ownership-vs-commutativity ablation")
		listFlag   = flag.Bool("list", false, "list workloads")
		faultSpec  = flag.String("faults", "", `deterministic fault injection into the measured epochs of the Fig. 14 and -strategies runs and into the shard nodes of -serve and -node shard:<i>, "seed:kind=prob[,...]" with kinds crash, drop, corrupt, straggle (e.g. "7:crash=0.05,straggle=0.2x4")`)
		traceOut   = flag.String("trace-out", "", "write a JSONL epoch-trace journal of every simulated network to this file")
		metricsOut = flag.String("metrics-out", "", "write the aggregated metrics registry as JSON to this file on exit")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		stateDir   = flag.String("state-dir", "", "persistent state directory: runs of one -workloads entry recover on restart, then journal every epoch of -txs transactions; -epochs 0 recovers and prints the chain head without driving load; with -serve every stateful node persists under per-role subdirectories")
		snapEvery  = flag.Int("snapshot-every", 8, "with -state-dir: snapshot file (what changed since the last one, or the full state when that is no smaller) and journal compaction every N committed epochs (0 = journal only, replayed from genesis)")

		serveAddr = flag.String("serve", "", "serve the JSON-RPC front door on this address (e.g. 127.0.0.1:8545) over a message-passing node cluster; with -node lookup, the lookup's own RPC address")
		serveTCP  = flag.String("serve-tcp", "", "with -serve: run the cluster's internal traffic over TCP, its nodes registered with a hub on this address, instead of in-process channels")
		lookups   = flag.Int("lookups", 1, "with -serve: number of lookup nodes in the cluster (RPC serves from the first)")
		blockIvl  = flag.Duration("block-interval", 250*time.Millisecond, "block production interval for -serve")
		nodeRole  = flag.String("node", "", "run one cluster actor as this OS process, registered with the TCP hub at -hub: hub, ds, shard:<i>, lookup, or lookup:<i>")
		hubAddr   = flag.String("hub", "", "with -node: the hub's address (listened on by the hub role, dialed by every other role)")
		hammerURL = flag.String("hammer", "", "hammer a serving instance at this URL (e.g. http://127.0.0.1:8545) and report latency percentiles; a comma-separated list round-robins workers over several servers")
		hammerN   = flag.Int("hammer-n", 1000, "transactions to push through with -hammer")
		hammerWk  = flag.Int("hammer-workers", 8, "closed-loop workers for -hammer")
		chainInfo = flag.String("chain-info", "", "query a serving instance at this URL for its chain head (epoch + state root) and exit")
		rpcWorkld = flag.String("rpc-workload", "FT transfer", "workload provisioned as genesis by -serve/-node and used as the -hammer stream (must match on both sides)")
		rpcShards = flag.Int("rpc-shards", 3, "shard count for -serve/-node/-hammer genesis (must match on both sides)")
	)
	flag.Parse()

	fail(refuseIgnoredFlags(*nodeRole, *serveAddr, *hammerURL, *stateDir, *overheads))

	if *listFlag {
		for _, w := range workload.All() {
			fmt.Printf("%-20s (%s)\n", w.Name, w.Contract)
		}
		return
	}

	if *pprofAddr != "" {
		go func() {
			fail(http.ListenAndServe(*pprofAddr, nil))
		}()
		fmt.Fprintf(os.Stderr, "shardsim: pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	// Shared observability for every network the chosen experiment
	// builds: one registry aggregates metrics across configurations,
	// and one journal (if requested) receives the interleaved traces.
	reg := obs.NewRegistry()
	netOpts := []shard.Option{shard.WithRegistry(reg)}
	var plan *fault.Plan
	if *faultSpec != "" {
		var err error
		plan, err = fault.ParseSpec(*faultSpec)
		fail(err)
		fmt.Fprintf(os.Stderr, "shardsim: injecting %s\n", plan)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		fail(err)
		journal := obs.NewJournal(f)
		defer func() {
			fail(journal.Close())
			fail(f.Close())
			fmt.Printf("wrote %s\n", *traceOut)
		}()
		netOpts = append(netOpts, shard.WithRecorder(journal))
	}
	if *metricsOut != "" {
		defer func() {
			f, err := os.Create(*metricsOut)
			fail(err)
			fail(reg.Snapshot().WriteJSON(f))
			fail(f.Close())
			fmt.Printf("wrote %s\n", *metricsOut)
		}()
	}

	cfg := bench.ThroughputConfig{
		Epochs:        *epochs,
		TxsPerEpoch:   *txs,
		NodesPerShard: *nodes,
		ShardGasLimit: *shardGas,
		DSGasLimit:    *dsGas,
		Faults:        plan,
		NetOptions:    netOpts,
	}

	switch {
	case *nodeRole != "":
		runNodeRole(*nodeRole, *hubAddr, *rpcWorkld, *rpcShards, *blockIvl, *stateDir, *snapEvery, *serveAddr, plan)
	case *serveAddr != "":
		serveRPC(*serveAddr, *serveTCP, *rpcWorkld, *rpcShards, *lookups, *blockIvl, *stateDir, *snapEvery, plan)
	case *chainInfo != "":
		info, err := rpc.NewClient(*chainInfo).ChainInfo()
		fail(err)
		fmt.Printf("chain: epoch=%d root=%s\n", info.Epoch, info.StateRoot)
	case *hammerURL != "":
		w, err := workload.ByName(*rpcWorkld)
		fail(err)
		next, err := rpc.WorkloadStream(w, *rpcShards)
		fail(err)
		urls := split(*hammerURL)
		fmt.Fprintf(os.Stderr, "shardsim: hammering %s: %d txs over %d workers (workload %q)\n",
			strings.Join(urls, ", "), *hammerN, *hammerWk, w.Name)
		rep, err := rpc.RunHammer(rpc.HammerConfig{
			URLs:    urls,
			Workers: *hammerWk,
			Total:   *hammerN,
			Next:    next,
		})
		fail(err)
		rpc.PrintHammer(os.Stdout, rep)
	case *stateDir != "":
		// Persistent chain: provision the deterministic genesis, recover
		// whatever a previous run journaled on top of it, then either
		// stop (-epochs 0: inspect the recovered head) or resume driving
		// -txs per epoch with every committed epoch journaled.
		names := split(*workloads)
		if len(names) != 1 {
			fail(fmt.Errorf("-state-dir persists one workload's chain: pass exactly one -workloads entry, got %d", len(names)))
		}
		w, err := workload.ByName(names[0])
		fail(err)
		provOpts := append([]shard.Option{
			shard.WithShards(4),
			shard.WithGasLimits(*shardGas, *dsGas),
		}, netOpts...)
		env, err := workload.Provision(w, true, provOpts...)
		fail(err)
		st, err := store.Open(*stateDir, store.WithSnapshotEvery(*snapEvery), store.WithRegistry(reg))
		fail(err)
		fail(st.Recover(env.Net))
		cp := env.Net.Checkpoint()
		fmt.Printf("state: recovered epoch=%d root=%s\n", cp.Epoch, env.Net.StateRoot())
		// On a line of its own: scripts compare the line above verbatim.
		full, incremental := st.Chain()
		fmt.Printf("state: chain %d full + %d incremental, %d journaled blocks replayed\n",
			full, incremental, reg.Counter("store.replayed_blocks").Value())
		if *epochs == 0 {
			fail(st.Close())
			return
		}
		env.ResyncNonces()
		env.Net.AttachStateStore(st)
		committed, failed := 0, 0
		for range *epochs {
			env.TopUp(w, *txs)
			stats, err := env.Net.RunEpoch()
			fail(err)
			committed += stats.Committed
			failed += stats.Failed
		}
		fmt.Printf("run: %d epochs, %d committed, %d failed\n", *epochs, committed, failed)
		cp = env.Net.Checkpoint()
		fmt.Printf("state: final epoch=%d root=%s\n", cp.Epoch, env.Net.StateRoot())
		fail(st.Close())
	case *overheads:
		r, err := bench.MeasureOverheads(5000, netOpts...)
		fail(err)
		bench.PrintOverheads(os.Stdout, r)
	case *strategy:
		rows, err := bench.RunStrategies(cfg)
		fail(err)
		bench.PrintStrategies(os.Stdout, rows)
	default:
		names := split(*workloads)
		if len(names) == 0 {
			for _, w := range workload.All() {
				names = append(names, w.Name)
			}
		}
		rows, err := bench.RunFig14(cfg, names)
		fail(err)
		bench.PrintFig14(os.Stdout, rows)
	}
}

// serveRPC boots a node cluster with a block producer and serves the
// JSON-RPC front door until the process is killed. The genesis stays a
// pure function of the workload and shard count so a hammer process
// can provision the identical transaction stream on its side. The
// shard nodes lose the MicroBlocks plan loses.
func serveRPC(addr, tcpAddr, workloadName string, shards, lookups int, interval time.Duration, stateDir string, snapEvery int, plan *fault.Plan) {
	w, err := workload.ByName(workloadName)
	fail(err)
	genesis := func() (*shard.Network, error) {
		env, err := workload.Provision(w, true, shard.WithShards(shards))
		if err != nil {
			return nil, err
		}
		return env.Net, nil
	}
	opts := []node.ClusterOption{node.ClusterShardNodes(node.ShardFaults(plan))}
	if tcpAddr != "" {
		opts = append(opts, node.ClusterTCP(tcpAddr))
	}
	if lookups > 1 {
		opts = append(opts, node.ClusterLookupCount(lookups))
	}
	if stateDir != "" {
		opts = append(opts, node.ClusterStateDir(stateDir, snapEvery))
		fmt.Fprintf(os.Stderr, "shardsim: persisting node state under %s (snapshot every %d epochs)\n", stateDir, snapEvery)
	}
	cluster, err := node.NewCluster(genesis, opts...)
	fail(err)
	defer cluster.Close()
	stop := cluster.Produce(interval, func(res node.TickResult) {
		if res.Err != nil {
			fmt.Fprintln(os.Stderr, "shardsim: block producer:", res.Err)
		}
	})
	defer stop()
	transport := "in-process channels"
	if tcpAddr != "" {
		transport = "TCP via " + tcpAddr
	}
	fmt.Fprintf(os.Stderr, "shardsim: JSON-RPC on http://%s/ (workload %q, %d shards, block interval %v, transport %s)\n",
		addr, w.Name, shards, interval, transport)
	fail(http.ListenAndServe(addr, rpc.NewServer(cluster.Lookup)))
}

// refuseIgnoredFlags fails a run that was given a flag its mode never
// reads, naming both: the run would silently be a different experiment
// from the one asked for. The node modes (-node, -serve, -hammer) write
// no trace or metrics file, and only the modes that run shards apply
// -faults; -state-dir and -overheads drive networks without the
// throughput harness, which alone applies -faults to them and models
// committees of -nodes.
func refuseIgnoredFlags(nodeRole, serveAddr, hammerURL, stateDir string, overheads bool) error {
	const nodeWhy = "not wired into the node modes"
	const harnessWhy = "only the Fig. 14 and -strategies runs read it"
	var mode string
	ignored := map[string]string{} // flag name → why the mode ignores it
	nodeMode := func(m string, runsShards bool) {
		mode = m
		ignored["trace-out"], ignored["metrics-out"] = nodeWhy, nodeWhy
		if !runsShards {
			ignored["faults"] = "it runs no shard"
		}
	}
	switch {
	case nodeRole != "":
		nodeMode("-node "+nodeRole, strings.HasPrefix(nodeRole, "shard:"))
	case serveAddr != "":
		nodeMode("-serve", true)
	case hammerURL != "":
		nodeMode("-hammer", false)
	case stateDir != "":
		mode, ignored["faults"], ignored["nodes"] = "-state-dir", harnessWhy, harnessWhy
	case overheads:
		mode, ignored["faults"] = "-overheads", harnessWhy
	default:
		return nil
	}
	var err error
	flag.Visit(func(f *flag.Flag) {
		if why, ok := ignored[f.Name]; ok && err == nil {
			err = fmt.Errorf("-%s has no effect with %s (%s); drop it or run another mode", f.Name, mode, why)
		}
	})
	return err
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

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "shardsim:", err)
		os.Exit(1)
	}
}
