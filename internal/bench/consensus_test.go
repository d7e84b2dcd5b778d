package bench

import (
	"testing"
	"testing/quick"
	"time"
)

func TestRoundTimeMonotonicInTxs(t *testing.T) {
	m := defaultModel(5)
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return m.roundTime(x) <= m.roundTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoundTimeMonotonicInCommittee(t *testing.T) {
	small := defaultModel(5)
	big := defaultModel(50)
	if small.roundTime(100) >= big.roundTime(100) {
		t.Error("larger committee must cost more")
	}
}

func TestEpochConsensusUsesMaxShard(t *testing.T) {
	sm := defaultModel(5)
	dm := defaultModel(10)
	// Shards run in parallel: only the largest MicroBlock matters for
	// the shard phase.
	aShard, aDS := epochConsensusParts(sm, dm, []int{100, 100, 100}, 0)
	bShard, bDS := epochConsensusParts(sm, dm, []int{100, 1, 1}, 0)
	// Shard-phase cost identical (max=100); FinalBlock differs by the
	// total transaction count only.
	shardPart := sm.roundTime(100)
	if aShard != shardPart || aDS != dm.roundTime(300) {
		t.Errorf("a: unexpected decomposition")
	}
	if bShard != shardPart || bDS != dm.roundTime(102) {
		t.Errorf("b: unexpected decomposition")
	}
	if aShard+aDS <= bShard+bDS {
		t.Error("more total transactions must cost more at the DS round")
	}
}

func TestZeroModel(t *testing.T) {
	var m pbftModel
	if m.roundTime(0) != 0 {
		t.Error("zero model should cost nothing")
	}
	if m.viewChangeTime() != 0 {
		t.Error("zero model's view change should cost nothing")
	}
}

// TestViewChangeTime: a view change costs two communication phases
// plus leader work — strictly positive, cheaper than a full block
// round over any non-empty block, and monotonic in committee size.
// At the paper's 5-node shard committee it is 200 ms of leader work
// plus two 30 ms phases.
func TestViewChangeTime(t *testing.T) {
	m := defaultModel(5)
	vc := m.viewChangeTime()
	if vc != 260*time.Millisecond {
		t.Fatalf("view change cost = %v, want 260ms", vc)
	}
	if vc >= m.roundTime(0) {
		t.Errorf("view change (%v) should be cheaper than a 3-phase round over an empty block (%v)",
			vc, m.roundTime(0))
	}
	if big := defaultModel(50); big.viewChangeTime() <= vc {
		t.Error("larger committee's view change must cost more")
	}
}

func TestEpochConsensusParts(t *testing.T) {
	sm := defaultModel(5)
	dm := defaultModel(10)
	perShard := []int{40, 100, 7}
	shardRound, dsRound := epochConsensusParts(sm, dm, perShard, 13)
	if shardRound != sm.roundTime(100) {
		t.Errorf("shard round = %v, want the largest MicroBlock's round %v",
			shardRound, sm.roundTime(100))
	}
	if dsRound != dm.roundTime(160) {
		t.Errorf("DS round = %v, want FinalBlock round over all txs %v",
			dsRound, dm.roundTime(160))
	}
}
