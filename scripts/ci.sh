#!/usr/bin/env sh
# Repository verification: formatting, build, vet, full test suite, and
# the race detector over the packages several goroutines reach (the obs
# recorders/journal every link of a node cluster feeds, the node actors
# with the lookup's lock-guarded receipt log and the RPC front door, and
# internal/shard's lock-guarded Submit queue around its single-goroutine
# pipeline, whose dispatcher is called from that one goroutine). Then
# benchmark smokes, short fuzz runs, every example program, and the
# shardsim CLI end to end: the fault-plan chaos run twice, flags a
# subcommand does not define refused by its parser, persistence and
# recovery, and node clusters in one process and in many.
set -eux

cd "$(dirname "$0")/.."

UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt needed on:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

go build ./...
go vet ./...
# The full suite includes the root package's dead-export gate
# (TestNoDeadExports): an exported function or method of internal/ that
# nothing outside tests calls fails it unless its allowlist says why.
go test ./...
# The benchmark is a module of its own composed from the public
# constructors and stage API (BeginEpoch / ExecuteShard / FinalizeEpoch
# / ApplyFinalBlock, the wire codecs, store, node); its 4 s smoke is
# what fails when a refactor breaks that API, before a benchmark run
# does.
(cd benchmark && go vet . && go test .)
# The race run covers the golden-trace tests (journal writes from the
# shard pipeline), the run-twice determinism suite (same seed, two
# networks, equal roots, receipts and MicroBlocks), the structural test
# that internal/shard and internal/dispatch contain no go statement, the
# shard-vs-DS route tests (failed-call atomicity, typed failure
# receipts) and the commit tests (a failed phase, a failed FinalBlock
# and a failed FinalizeEpoch leave no trace; commit + root allocations
# equal over 1k and 100k holders; the undo log over contract state and
# account rows, the packed account table's all-or-nothing Apply and its
# two balance bounds in internal/chain) alongside the concurrent
# packages.
go test -race ./internal/chain/... ./internal/shard/... ./internal/dispatch/... ./internal/obs/... ./internal/fault/...
# The node/wire/rpc race run covers the node roles end to end — each a
# handler driven by one runtime that owns its receive goroutine, lock,
# timer and close protocol — including the TCP-transport smoke
# (TestTCPClusterSmoke), the one Endpoint contract both transports keep
# (TestEndpointContract), a TCP endpoint restarted under its name and
# the TCP handshake deadlines, a cluster whose shard nodes lose
# MicroBlocks by a fault plan exactly as the in-process pipeline loses
# them (TestClusterLosesWhatThePlanLoses), a committee that files a
# MicroBlock only from its shard's own node
# (TestDSTakesMicroBlocksOnlyFromTheirShard), the absolute
# golden-root suite (monolithic, interpreter, ChanNetwork cluster), a
# dead shard node's traffic escalating to the DS committee, and replicas
# applying DS-heavy FinalBlocks without executing, the lookup's receipt
# log (its model test, its answers against the blocks' own receipts and
# what a filed receipt keeps alive), the gate
# that a replica applying 50 decoded blocks keeps none of their receipts,
# the committee's Ticks from two goroutines and a Tick cut short by
# Close (TestTickSerialized), and a replica that undoes a FinalBlock
# with a wrong root, fetches it again and heals, or gives up after its
# bounded retries (TestReplicaHealsFailedBlock). The handlers stepped
# by hand with no runtime (TestRolesStepWithoutRuntime), a replica and
# a lookup that take blocks only from their committee
# (TestReplicaTakesBlocksOnlyFromItsCommittee,
# TestLookupTakesBlocksOnlyFromItsCommittee), and a replica that
# refuses a block with no root to verify
# (TestReplicaRefusesRootlessBlock), a replica on an empty directory
# that rejoins a restarted committee from a state image
# (TestReplicaRejoinsFromStateImage), a fresh replica that gathers a
# many-record state image frame by frame, applies nothing from a run
# missing a frame or its trailer and rejoins from a whole one
# (TestReplicaRejoinsFromLargeImage), a committee that ends an image at
# its first failed send and counts it (TestImageSendErrorsCounted) and
# a cluster restarted on a torn and a wiped replica directory, each
# caught up over the wire (TestClusterKillRestartResumes), and a
# committee that refuses on receipt a MicroBlock from shard 0's own node
# whose delta entry carries a forged keypath, loses and requeues its
# batch and still makes a state image
# (TestMicroBlockWithForgedKeypathIsLost), and a cluster whose busy
# epoch's transactions are garbage once one more, empty tick has run
# (TestFinishedEpochIsCollected) run five times more with those two and
# the two fault tests above. The canonical-delta checks run in
# the first line: every decoder refuses a delta out of order or with a
# forged keypath (TestDeltaIsCanonical), for the same reason whether it
# builds the delta or only records where the receipts lie
# (TestReceiptsOnlyReadRejectsCorruptDeltas).
go test -race ./internal/wire/... ./internal/node/... ./internal/rpc/...
go test -race -count=5 -run 'TestTickSerialized|TestReplicaHealsFailedBlock|TestClusterLosesWhatThePlanLoses|TestDSTakesMicroBlocksOnlyFromTheirShard|TestRolesStepWithoutRuntime|TestReplicaTakesBlocksOnlyFromItsCommittee|TestLookupTakesBlocksOnlyFromItsCommittee|TestReplicaRefusesRootlessBlock|TestReplicaRejoinsFromStateImage|TestReplicaRejoinsFromLargeImage|TestImageSendErrorsCounted|TestClusterKillRestartResumes|TestMicroBlockWithForgedKeypathIsLost|TestFinishedEpochIsCollected' ./internal/node/
# The persistence race run covers the state store (journal append,
# snapshot chains and their fold rule, a map many state records long
# snapshotted, imaged and recovered (TestLargeStateSnapshot), recovery
# from every crash state around a boundary, the seeded recovery-equivalence property over nested
# maps and deletes, the refusal of a previous-version journal and of a
# directory the retired paged store wrote) and the incremental root trie
# under -short (the million-account test opts out of the race detector;
# the trie's golden root and edge-order checks do not).
go test -race -short ./internal/store/... ./internal/trie/...
# Residency gate: the million-account run asserts its live-heap ceiling
# in-test; GOMEMLIMIT pins the runtime's GC target just above that
# ceiling so quiet heap growth degrades into GC thrash and a visibly
# slow (or failed) run instead of passing on a big-RAM host.
GOMEMLIMIT=400MiB go test -run 'TestMillionAccountsBoundedMemory' -timeout 20m ./internal/store/
# Compile-and-run smoke of the commit benchmarks (one iteration each;
# the 1M-holder set-up dominates, about 10 s): the in-place merge per
# field and the holders sweep whose rows EXPERIMENTS.md records, and the
# block fan-out (one 4000-tx block sealed, journaled, broadcast to and
# applied by a journaling ChanNetwork cluster; its retained-B/tx is what
# the epoch left on the live heap), and the snapshot boundary over the
# same holders sweep; the lookup's receipt log filing one 4000-receipt
# block's receipt section at capacity, and one request/reply round trip
# between two TCP endpoints; and one 2000-transfer block decoded as a
# replica, a lookup and the committee (from a shard) decode it.
go test -run '^$' -bench 'CommitHolders|SnapshotHolders|MergePerField|BlockFanout' -benchtime 1x .
go test -run '^$' -bench 'ReceiptLogFile|TCPRoundTrip' -benchtime 1x ./internal/node/
# The JSON-RPC server alone: one sendRawTransaction, getBalance and
# getState request each through Server.ServeHTTP over a ChanNetwork
# cluster; and the same three calls through rpc.Client over a loopback
# connection into that server.
go test -run '^$' -bench 'RPCServe|ClientCall' -benchtime 1x ./internal/rpc/
# The root trie's slab: one 100k-leaf load key by key and one sorted
# bulk load (ns, B, allocations and retained bytes per leaf each) and
# one epoch's 500 overwrites + Root at 10k, 100k and 1M leaves of both
# key shapes; and one role's genesis, epoch_cf_bigstate's 100k-account
# Provision and its first root.
go test -run '^$' -bench 'Trie(Load|Epoch)' -benchtime 1x ./internal/trie/
go test -run '^$' -bench 'Provision' -benchtime 1x ./internal/workload/
go test -run '^$' -bench 'Decode(FinalBlock|MicroBlock)' -benchtime 1x ./internal/wire/
# Same for the executor microbenchmarks that size the state-access seam
# (one Transfer on each engine, the overlay's entry write and
# read-modify-write), so they are run, not merely compiled.
go test -run '^$' -bench 'TransferExec|CompiledTransfer|Overlay' -benchtime 1x ./internal/scilla/... ./internal/chain/
# The account table: 100k accounts created and each read back (bytes
# retained per account, allocations of the pass).
go test -run '^$' -bench 'AccountTable' -benchtime 1x ./internal/chain/
# A contract map: 100k ByStr32 → ByStr20 entries set and each read back
# (bytes retained per entry, allocations of the pass).
go test -run '^$' -bench 'MapEntries' -benchtime 1x ./internal/scilla/value/
# Short fuzz runs of the wire decoders beyond the committed corpus —
# including the store's snapshot/journal record types — no decoder may
# panic on hostile bytes, and decode∘encode must stay a fixed point; and
# of the receipt decoder blocks use, which checks events without
# building them: whatever it accepts must build on demand and
# round-trip; and of the two partial reads of a FinalBlock, a lookup's
# and a replica's, which must accept what the full decode accepts and
# return the block's epoch and root with, for the lookup, exactly the
# receipts it builds, each placed in the receipt section, or, for the
# replica, its state sections.
go test -fuzz=FuzzDecoders -fuzztime=10s ./internal/wire/
go test -fuzz=FuzzReceiptEvents -fuzztime=10s ./internal/wire/
go test -fuzz=FuzzFinalBlockReceipts -fuzztime=10s ./internal/wire/
# And of the lookup's receipt log coding: any receipt coded against any
# run head reads back as itself, never longer than kept whole.
go test -fuzz=FuzzReceiptDelta -fuzztime=10s ./internal/node/
# And of the hand-coded JSON-RPC envelope against encoding/json: the
# server reads any body as encoding/json does or refuses it with the
# same code and message, every reply is the bytes json.NewEncoder
# writes, and every client request body decodes as json.Marshal's did.
go test -fuzz=FuzzRPCCodec -fuzztime=10s ./internal/rpc/
# And of the root trie's slab against a map model: contents, root equal
# to a fresh build's, edge order, and every slot reachable or free,
# never both, for the trie built op by op and for one bulk-loaded from
# the model's sorted keys mid-sequence.
go test -fuzz=FuzzTrieOps -fuzztime=10s ./internal/trie/
# And of String keys' canonical forms: equal keypaths only for equal key
# tuples, keypaths ordered as the tuples of canonical keys, every key
# byte above the keypath separator, and KeyOf inverting every key.
go test -fuzz=FuzzCanonicalKey -fuzztime=10s ./internal/scilla/value/
# The example programs are documentation that compiles; run each so it
# also still works (about 0.04 s together).
for example in crowdfunding erc20 quickstart repair udregistry; do
    go run ./examples/$example
done
# Chaos smoke: the throughput harness applies a deterministic fault
# plan (crashes, drops, corrupt deltas, stragglers) to the measured
# epochs of a Fig. 14 run, under the race detector so the pipeline's
# recovery path (a MicroBlock that did not arrive: requeue, escalation)
# is exercised. It runs twice: the same seed and spec must give
# identical transaction and loss counters, and the plan must have lost
# transactions.
go build -race -o /tmp/cosplit-shardsim-race ./cmd/shardsim
for run in 1 2; do
    /tmp/cosplit-shardsim-race fig14 -txs 200 -epochs 4 -workloads "FT transfer" \
        -faults "7:crash=0.1,drop=0.05,corrupt=0.02,straggle=0.25x4" \
        -metrics-out /tmp/cosplit-chaos-$run.json
    grep -E '"(tx|fault)\.' /tmp/cosplit-chaos-$run.json >/tmp/cosplit-chaos-$run.counters
done
cmp /tmp/cosplit-chaos-1.counters /tmp/cosplit-chaos-2.counters
[ "$(grep '"fault.lost_txs"' /tmp/cosplit-chaos-1.counters | tr -dc 0-9)" -gt 0 ]
# Restart-recovery smoke through the CLI: a fresh persistent chain run
# prints its final chain head; a recover-only restart (-epochs 0) must
# land on the identical root. Then a run is killed with SIGKILL
# mid-flight: the journal is fsynced every committed epoch, so
# recovery must come back cleanly (torn tail truncated at the last
# good frame) and two consecutive recoveries must agree.
go build -o /tmp/cosplit-shardsim ./cmd/shardsim
# Each subcommand defines only the flags its run reads, so its parser
# refuses any other one before anything starts: the node subcommands
# write no trace or metrics file yet, -faults reaches only what runs
# shards (so hammer, head and node ds refuse it), only the throughput
# harness (fig14, strategies) applies -faults and models committees of
# -nodes (so chain and overheads refuse those), and neither hammer
# reads -state-dir nor node shard -block-interval. (`! cmd` alone is
# exempt from set -e, and an accepted serve would run for ever: hence
# the helper.)
refused() {
    flag=$1
    shift
    if out=$(timeout 10 /tmp/cosplit-shardsim "$@" 2>&1); then
        echo "ci: shardsim $* was not refused" >&2
        exit 1
    fi
    echo "$out" | grep -q -- "flag provided but not defined: $flag"
}
refused -faults hammer http://127.0.0.1:18545 -faults "7:crash=0.1"
refused -faults node ds -hub 127.0.0.1:19100 -faults "7:crash=0.1"
refused -trace-out serve -rpc 127.0.0.1:18545 -trace-out /tmp/cosplit-trace.jsonl
refused -metrics-out node ds -hub 127.0.0.1:19100 -metrics-out /tmp/cosplit-metrics.json
refused -faults chain -state-dir /tmp/cosplit-refused -workload "FT transfer" -faults "7:crash=0.1"
refused -nodes chain -state-dir /tmp/cosplit-refused -workload "FT transfer" -nodes 7
refused -faults overheads -faults "7:crash=0.1"
refused -state-dir hammer http://127.0.0.1:18545 -state-dir /tmp/cosplit-refused
refused -faults head http://127.0.0.1:18545 -faults "7:crash=0.1"
refused -block-interval node shard 0 -hub 127.0.0.1:19100 -block-interval 50ms
STATE_DIR=$(mktemp -d)
FINAL=$(/tmp/cosplit-shardsim chain -state-dir "$STATE_DIR" -workload "FT transfer" -txs 200 -epochs 4 | grep '^state: final')
RECOVERED=$(/tmp/cosplit-shardsim chain -state-dir "$STATE_DIR" -workload "FT transfer" -epochs 0 | grep '^state: recovered')
[ "${FINAL#state: final }" = "${RECOVERED#state: recovered }" ]
/tmp/cosplit-shardsim chain -state-dir "$STATE_DIR" -workload "FT transfer" -txs 200 -epochs 100000 &
KILL_PID=$!
sleep 2
kill -9 $KILL_PID
wait $KILL_PID || true
R1=$(/tmp/cosplit-shardsim chain -state-dir "$STATE_DIR" -workload "FT transfer" -epochs 0 | grep '^state: recovered')
R2=$(/tmp/cosplit-shardsim chain -state-dir "$STATE_DIR" -workload "FT transfer" -epochs 0 | grep '^state: recovered')
[ "$R1" = "$R2" ]
rm -rf "$STATE_DIR"
# The same two checks where snapshots take the incremental side: FT
# transfer's 200 users dirty nearly the whole state every interval, so
# the run above mostly writes full files; CF donate touches a few
# hundred of 100k accounts per epoch, so with a boundary every 2 epochs
# the directory ends as a chain of incremental files (more than one
# snapshot-*.snap), which a recover-only restart must apply in order to
# land on the printed root — and after a SIGKILL, wherever it fell
# around a boundary, two consecutive recoveries must agree.
INC_DIR=$(mktemp -d)
FINAL_I=$(/tmp/cosplit-shardsim chain -state-dir "$INC_DIR" -workload "CF donate" -snapshot-every 2 -txs 200 -epochs 7 | grep '^state: final')
[ "$(ls "$INC_DIR"/snapshot-*.snap | wc -l)" -gt 1 ]
RECOVERED_I=$(/tmp/cosplit-shardsim chain -state-dir "$INC_DIR" -workload "CF donate" -snapshot-every 2 -epochs 0)
echo "$RECOVERED_I" | grep '^state: chain'
[ "${FINAL_I#state: final }" = "$(echo "$RECOVERED_I" | grep '^state: recovered' | sed 's/^state: recovered //')" ]
/tmp/cosplit-shardsim chain -state-dir "$INC_DIR" -workload "CF donate" -snapshot-every 2 -txs 200 -epochs 100000 &
KILL_PID=$!
sleep 3
kill -9 $KILL_PID
wait $KILL_PID || true
I1=$(/tmp/cosplit-shardsim chain -state-dir "$INC_DIR" -workload "CF donate" -snapshot-every 2 -epochs 0 | grep '^state: recovered')
I2=$(/tmp/cosplit-shardsim chain -state-dir "$INC_DIR" -workload "CF donate" -snapshot-every 2 -epochs 0 | grep '^state: recovered')
[ "$I1" = "$I2" ]
[ -z "$(ls "$INC_DIR" | grep '\.tmp$' || true)" ]
rm -rf "$INC_DIR"
# Node-mode smoke: boot the JSON-RPC front door over a cluster whose
# internal traffic runs on real TCP sockets, hammer it closed-loop,
# and require every transaction to commit with a receipt. The final
# state root is captured as the yardstick for the multi-process run
# below: the committed transaction set alone determines the root, so
# any topology pushing the same 300 transactions must land on it. On
# SIGTERM serve closes the cluster and prints the committee's head,
# which must be that root.
SERVE_OUT=$(mktemp)
/tmp/cosplit-shardsim serve -rpc 127.0.0.1:18545 -hub 127.0.0.1:0 -block-interval 50ms >"$SERVE_OUT" &
SERVE_PID=$!
trap 'kill $SERVE_PID 2>/dev/null || true' EXIT
sleep 2
HAMMER_OUT=$(/tmp/cosplit-shardsim hammer http://127.0.0.1:18545 -n 300 -workers 8)
echo "$HAMMER_OUT"
echo "$HAMMER_OUT" | grep -q '300 submitted, 300 committed, 0 failed, 0 rejected, 0 lost'
SINGLE_ROOT=$(/tmp/cosplit-shardsim head http://127.0.0.1:18545 | sed 's/.*root=//')
kill $SERVE_PID
wait $SERVE_PID
[ "$(grep '^node: final' "$SERVE_OUT" | sed 's/.*root=//')" = "$SINGLE_ROOT" ]
rm -f "$SERVE_OUT"

# Multi-process chaos smoke: every cluster actor as its own OS process,
# registered with the TCP hub and sending to its peers directly — hub,
# DS committee, three shard replicas with
# per-role state directories, and two lookups each serving JSON-RPC —
# hammered round-robin across both lookups. Mid-run one shard replica
# is SIGKILLed, its directory wiped, and restarted: it must recover
# from its own (now empty) directory to genesis, re-register with the
# hub, and catch up over the wire (MsgBlockRequest) — the committee's
# journal no longer holds genesis, so it is sent a state image
# (MsgStateImage) over TCP into a fresh store — so the hammer still
# commits all 300 and
# every role — both lookups and, after SIGTERM, the committee and all
# three replicas — reports the single-process run's exact root. Replica
# `node shard 2` runs under a fault plan. The plan is pure: for shard 2, seed
# 30695 loses epoch 4 (corrupt) and epoch 19 (crash), and no other
# epoch before 302, so the run pays the committee's 2 s collect timeout
# twice; genesis is epoch 2.
NODE_DIR=$(mktemp -d)
HUB=127.0.0.1:19100
LK0=127.0.0.1:19101
LK1=127.0.0.1:19102
/tmp/cosplit-shardsim node hub -hub $HUB >"$NODE_DIR/hub.out" 2>&1 &
HUB_PID=$!
/tmp/cosplit-shardsim node ds -hub $HUB -state-dir "$NODE_DIR" -block-interval 50ms >"$NODE_DIR/ds.out" 2>&1 &
DS_PID=$!
/tmp/cosplit-shardsim node shard 0 -hub $HUB -state-dir "$NODE_DIR" >"$NODE_DIR/shard0.out" 2>&1 &
S0_PID=$!
/tmp/cosplit-shardsim node shard 1 -hub $HUB -state-dir "$NODE_DIR" >"$NODE_DIR/shard1.out" 2>&1 &
S1_PID=$!
/tmp/cosplit-shardsim node shard 2 -hub $HUB -state-dir "$NODE_DIR" \
    -faults "30695:crash=0.01,drop=0.01,corrupt=0.01" >"$NODE_DIR/shard2.out" 2>&1 &
S2_PID=$!
/tmp/cosplit-shardsim node lookup -hub $HUB -rpc $LK0 >"$NODE_DIR/lookup0.out" 2>&1 &
L0_PID=$!
/tmp/cosplit-shardsim node lookup 1 -hub $HUB -rpc $LK1 >"$NODE_DIR/lookup1.out" 2>&1 &
L1_PID=$!
trap 'kill $HUB_PID $DS_PID $S0_PID $S1_PID $S2_PID $L0_PID $L1_PID 2>/dev/null || true' EXIT
sleep 2
/tmp/cosplit-shardsim hammer "http://$LK0,http://$LK1" -n 300 -workers 8 >"$NODE_DIR/hammer.out" 2>&1 &
HAMMER_PID=$!
sleep 1
kill -9 $S1_PID
wait $S1_PID || true
rm -rf "$NODE_DIR/shard-1"
sleep 1
/tmp/cosplit-shardsim node shard 1 -hub $HUB -state-dir "$NODE_DIR" >>"$NODE_DIR/shard1.out" 2>&1 &
S1_PID=$!
wait $HAMMER_PID
cat "$NODE_DIR/hammer.out"
grep -q '300 submitted, 300 committed, 0 failed, 0 rejected, 0 lost' "$NODE_DIR/hammer.out"
# The replica recovered twice: once at boot, once after the SIGKILL —
# the second, on the wiped directory, is at genesis, far behind the
# committee, and catches up from a state image over the wire (proved by
# the root checks below).
[ "$(grep -c 'shard-1 recovered' "$NODE_DIR/shard1.out")" -ge 2 ]
sleep 1
[ "$(/tmp/cosplit-shardsim head http://$LK0 | sed 's/.*root=//')" = "$SINGLE_ROOT" ]
[ "$(/tmp/cosplit-shardsim head http://$LK1 | sed 's/.*root=//')" = "$SINGLE_ROOT" ]
kill $DS_PID $S0_PID $S1_PID $S2_PID $L0_PID $L1_PID
wait $DS_PID $S0_PID $S1_PID $S2_PID $L0_PID $L1_PID || true
for role in ds shard0 shard1 shard2; do
    [ "$(grep '^node: final' "$NODE_DIR/$role.out" | tail -1 | sed 's/.*root=//')" = "$SINGLE_ROOT" ]
done
kill $HUB_PID
wait $HUB_PID || true
rm -rf "$NODE_DIR"
