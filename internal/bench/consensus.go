package bench

import "time"

// The throughput harness charges each epoch a modelled PBFT agreement
// (Sec. 4.1): the simulator executes transactions for real but on one
// machine, so consensus and network costs are modelled analytically. A
// PBFT round is three communication phases, each costing one network
// latency plus per-node signature verification over the committee,
// plus payload serialisation proportional to the block size. The
// constants are calibrated to small EC2-class nodes; only the *shape*
// of the resulting throughput curves matters for reproducing Fig. 14
// (see DESIGN.md, substitution 1). Nothing outside this package reads
// the model: internal/shard measures only.

// pbftModel parameterises the consensus cost model.
type pbftModel struct {
	// committeeSize is the number of nodes in the committee (shard or
	// DS committee).
	committeeSize int
	// netLatency is the one-way network latency between two nodes.
	netLatency time.Duration
	// msgVerify is the cost of verifying one signed protocol message.
	msgVerify time.Duration
	// perTxCost models serialisation/broadcast per transaction in the
	// proposed block.
	perTxCost time.Duration
	// baseProposal is the fixed leader-side cost of assembling a block.
	baseProposal time.Duration
}

// defaultModel returns constants loosely calibrated to t2.medium-class
// nodes in one AWS region (the paper's testbed). They are deliberately
// on the heavy side so the deterministic modelled time dominates the
// measured single-machine execution time: throughput comparisons then
// reflect committee capacity rather than host scheduling noise.
func defaultModel(committee int) pbftModel {
	return pbftModel{
		committeeSize: committee,
		netLatency:    20 * time.Millisecond,
		msgVerify:     2 * time.Millisecond,
		perTxCost:     50 * time.Microsecond,
		baseProposal:  200 * time.Millisecond,
	}
}

// Phases in a PBFT round: pre-prepare, prepare, commit.
const pbftPhases = 3

// Phases in a PBFT view change: view-change broadcast and the new
// leader's new-view announcement.
const viewChangePhases = 2

// roundTime returns the modelled duration of one PBFT consensus round
// over a block containing txCount transactions.
func (m pbftModel) roundTime(txCount int) time.Duration {
	perPhase := m.netLatency + time.Duration(m.committeeSize)*m.msgVerify
	return m.baseProposal +
		time.Duration(pbftPhases)*perPhase +
		time.Duration(txCount)*m.perTxCost
}

// viewChangeTime returns the modelled cost of one PBFT view change:
// the committee times out on its leader, broadcasts view-change
// messages, and the next leader assembles and broadcasts the new-view
// certificate (charged at baseProposal, like a block proposal). The
// harness charges one when a fault plan loses a shard's MicroBlock:
// the surviving committee must re-elect before the next epoch can make
// progress.
func (m pbftModel) viewChangeTime() time.Duration {
	perPhase := m.netLatency + time.Duration(m.committeeSize)*m.msgVerify
	return m.baseProposal + time.Duration(viewChangePhases)*perPhase
}

// epochConsensusParts returns the modelled consensus cost of one epoch
// in its two stages: the shards agree on their MicroBlocks in parallel
// (one round, at the largest block's size), then the DS committee
// agrees on the FinalBlock covering every shard transaction and its
// own dsTxs.
func epochConsensusParts(shardModel, dsModel pbftModel, perShardTxs []int, dsTxs int) (shardRound, dsRound time.Duration) {
	maxShard := 0
	total := 0
	for _, n := range perShardTxs {
		maxShard = max(maxShard, n)
		total += n
	}
	return shardModel.roundTime(maxShard), dsModel.roundTime(total + dsTxs)
}
