package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cosplit/internal/fault"
	"cosplit/internal/node"
	"cosplit/internal/rpc"
	"cosplit/internal/shard"
	"cosplit/internal/store"
	"cosplit/internal/workload"
)

// runNodeRole runs one cluster actor as its own OS process, so process
// death (kill -9 included) is a real fault and restart + wire resync a
// real recovery. Roles register with a shared TCP hub and send frames
// to each other directly. Roles:
//
//	hub        the directory of role names and listen addresses, on -hub
//	ds         the DS committee with the block producer
//	shard:<i>  the replica executing shard i
//	lookup     a client-facing lookup (optionally with -serve for RPC);
//	lookup:<i> further lookups, named lookup-<i>
//
// Every role but hub dials the hub at -hub (retrying while it comes
// up) and provisions the same deterministic genesis from
// -rpc-workload/-rpc-shards. With -state-dir, the ds and shard roles
// persist under per-role subdirectories and recover from them on
// restart; a shard that recovered behind the committee catches the
// tail up over the wire (MsgBlockRequest) once live traffic reveals
// the skew. A shard role loses the MicroBlocks plan loses (-faults).
// SIGINT/SIGTERM shuts a role down cleanly; stateful roles print their
// final chain head as "node: final epoch=E root=R".
func runNodeRole(role, hubAddr, workloadName string, shards int, interval time.Duration, stateDir string, snapEvery int, rpcAddr string, plan *fault.Plan) {
	if hubAddr == "" {
		fail(errors.New("-node needs -hub (the hub's listen/dial address)"))
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if role == "hub" {
		hub, err := node.ListenTCP(hubAddr)
		fail(err)
		fmt.Fprintf(os.Stderr, "shardsim: hub on %s\n", hub.Addr())
		<-sig
		hub.Close()
		return
	}

	w, err := workload.ByName(workloadName)
	fail(err)
	genesis := func() (*shard.Network, error) {
		env, err := workload.Provision(w, true, shard.WithShards(shards))
		if err != nil {
			return nil, err
		}
		return env.Net, nil
	}
	openRoleStore := func(sub string, n *shard.Network) *store.Store {
		if stateDir == "" {
			return nil
		}
		st, err := store.Open(filepath.Join(stateDir, sub), store.WithSnapshotEvery(snapEvery))
		fail(err)
		fail(st.Recover(n))
		cp := n.Checkpoint()
		fmt.Fprintf(os.Stderr, "shardsim: %s recovered epoch=%d root=%s\n", sub, cp.Epoch, n.StateRoot())
		n.AttachStateStore(st)
		return st
	}

	switch {
	case role == "ds":
		net, err := genesis()
		fail(err)
		st := openRoleStore("ds", net)
		shardNames := make([]string, shards)
		for i := range shardNames {
			shardNames[i] = fmt.Sprintf("shard-%d", i)
		}
		var opts []node.DSOption
		if st != nil {
			opts = append(opts, node.DSBlockSource(st))
		}
		ds, err := node.NewDS("ds", net, dialHub(hubAddr, "ds"), shardNames, opts...)
		fail(err)
		ds.Run()
		fmt.Fprintf(os.Stderr, "shardsim: ds driving %d shards every %v via %s\n", shards, interval, hubAddr)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
	produce:
		for {
			select {
			case <-ticker.C:
				if res := ds.Tick(); res.Err != nil {
					fmt.Fprintln(os.Stderr, "shardsim: block producer:", res.Err)
				}
			case <-sig:
				break produce
			}
		}
		ds.Close()
		cp := net.Checkpoint()
		fmt.Printf("node: final epoch=%d root=%s\n", cp.Epoch, net.StateRoot())
		if st != nil {
			fail(st.Close())
		}

	case strings.HasPrefix(role, "shard:"):
		i, err := strconv.Atoi(strings.TrimPrefix(role, "shard:"))
		if err != nil || i < 0 || i >= shards {
			fail(fmt.Errorf("-node %s: shard index must be 0..%d", role, shards-1))
		}
		replica, err := genesis()
		fail(err)
		name := fmt.Sprintf("shard-%d", i)
		st := openRoleStore(name, replica)
		sn := node.NewShard(name, i, replica, dialHub(hubAddr, name), "ds", node.ShardFaults(plan))
		sn.Run()
		fmt.Fprintf(os.Stderr, "shardsim: %s executing via %s\n", name, hubAddr)
		<-sig
		sn.Close()
		if err := sn.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "shardsim: %s: %v\n", name, err)
		}
		cp := replica.Checkpoint()
		fmt.Printf("node: final epoch=%d root=%s\n", cp.Epoch, replica.StateRoot())
		if st != nil {
			fail(st.Close())
		}

	case role == "lookup" || strings.HasPrefix(role, "lookup:"):
		name := "lookup"
		if rest := strings.TrimPrefix(role, "lookup:"); rest != role {
			i, err := strconv.Atoi(rest)
			if err != nil || i < 0 {
				fail(fmt.Errorf("-node %s: lookup index must be a non-negative integer", role))
			}
			if i > 0 {
				name = fmt.Sprintf("lookup-%d", i)
			}
		}
		l := node.NewLookup(name, dialHub(hubAddr, name), "ds")
		l.Run()
		if rpcAddr != "" {
			go func() { fail(http.ListenAndServe(rpcAddr, rpc.NewServer(l))) }()
			fmt.Fprintf(os.Stderr, "shardsim: %s JSON-RPC on http://%s/ via %s\n", name, rpcAddr, hubAddr)
		} else {
			fmt.Fprintf(os.Stderr, "shardsim: %s via %s\n", name, hubAddr)
		}
		<-sig
		l.Close()

	default:
		fail(fmt.Errorf("-node %s: want hub, ds, shard:<i>, lookup, or lookup:<i>", role))
	}
}

// dialHub registers with the hub, retrying while it comes up or still
// holds a killed predecessor's registration under the same name —
// roles are separate processes with no start ordering.
func dialHub(addr, name string) node.Endpoint {
	deadline := time.Now().Add(15 * time.Second)
	for {
		ep, err := node.DialTCP(addr, name)
		if err == nil {
			return ep
		}
		if time.Now().After(deadline) {
			fail(fmt.Errorf("dial hub %s as %q: %w", addr, name, err))
		}
		time.Sleep(250 * time.Millisecond)
	}
}
