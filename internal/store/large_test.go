package store

import (
	"bytes"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cosplit/internal/chain"
	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
	"cosplit/internal/wire"
)

// seedLargeState gives the token contract more balances than three
// state records hold — holders beyond its users — and allowances
// holding a nested map of several entries and an empty nested map, then
// rebuilds the root.
func seedLargeState(n *shard.Network, contract chain.Address, holders int) {
	c := n.Contracts.Get(contract)
	st := eval.NewMemState(c.Checked.FieldTypes)
	maps.Copy(st.Fields, c.Snapshot().Fields)
	balances := st.Fields["balances"].(*value.Map).Copy()
	for i := 0; i < holders; i++ {
		balances.Set(chain.AddrFromUint(uint64(1_000_000+i)).Value(), value.Uint128(uint64(i+1)))
	}
	spenders := value.NewMap(ast.TyByStr20, ast.TyUint128)
	for i := 0; i < 5; i++ {
		spenders.Set(chain.AddrFromUint(uint64(2_000_000+i)).Value(), value.Uint128(7))
	}
	allowances := st.Fields["allowances"].(*value.Map).Copy()
	allowances.Set(chain.AddrFromUint(3_000_000).Value(), spenders)
	allowances.Set(chain.AddrFromUint(3_000_001).Value(), value.NewMap(ast.TyByStr20, ast.TyUint128))
	st.Fields["balances"], st.Fields["allowances"] = balances, allowances
	c.ReplaceState(st)
	n.RebuildStateRoots()
}

// stateRecordsOf decodes the state-delta records among raw's frames.
func stateRecordsOf(t *testing.T, raw []byte) []*chain.StateDelta {
	t.Helper()
	var out []*chain.StateDelta
	for _, fr := range frames(t, raw) {
		typ, payload, _, err := wire.DecodeFrame(fr)
		if err != nil {
			t.Fatal(err)
		}
		if typ != wire.MsgStateDelta {
			continue
		}
		d, err := wire.DecodeStateDelta(payload)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, d)
	}
	return out
}

// mustEncode encodes d as a state-delta record's payload.
func mustEncode(t *testing.T, d *chain.StateDelta) []byte {
	t.Helper()
	payload, err := wire.EncodeStateDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// components counts a record's components: its entries, and each field
// written whole.
func components(d *chain.StateDelta) int {
	n := 0
	for _, fd := range d.Fields {
		if fd.Whole != nil {
			n++
		}
		n += len(fd.Entries)
	}
	return n
}

// TestLargeStateSnapshot: a contract whose map holds more than three
// records' worth of entries, beside a nested map and an empty nested
// one, snapshots in records of at most snapshotBatch components each
// and recovers to the same root; its state image is the full file, and one
// missing its trailer or a middle record applies nothing, and one
// writing a field the contract lacks is refused. A directory
// whose full file holds the retired whole-contract record (type 12)
// fails recovery loudly and leaves the network as it was.
func TestLargeStateSnapshot(t *testing.T) {
	const holders = 3*snapshotBatch + 100
	a := provisionFT(t)
	runEpochs(t, a, 1, 1)
	seedLargeState(a.Net, a.Contract, holders)
	root, cp := a.Net.StateRoot(), a.Net.Checkpoint()

	dir := t.TempDir()
	if _, err := writeSnapshotFile(dir, snapshotName(cp.Epoch), func(put putRecord) error {
		return writeFull(put, a.Net, cp)
	}); err != nil {
		t.Fatal(err)
	}
	file := readFile(t, filepath.Join(dir, snapshotName(cp.Epoch)))
	recs := stateRecordsOf(t, file)
	if len(recs) <= holders/snapshotBatch {
		t.Fatalf("%d holders in %d state records", holders, len(recs))
	}
	for i, d := range recs {
		if n := components(d); n > snapshotBatch {
			t.Errorf("full file record %d holds %d components, the bound is %d", i, n, snapshotBatch)
		}
	}
	b, st := recoverFresh(t, dir, WithSnapshotEvery(0))
	st.Close()
	if got := b.Net.StateRoot(); got != root || b.Net.Checkpoint() != cp || b.Net.RecomputeStateRoot() != root {
		t.Fatalf("recovered %+v root %s, want %+v root %s", b.Net.Checkpoint(), got, cp, root)
	}

	// The image is the full file, record by record.
	var records [][]byte
	if err := Image(a.Net, func(record []byte) error {
		records = append(records, record)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if image := bytes.Join(records, nil); !bytes.Equal(image, file) {
		t.Fatalf("the image (%d bytes in %d records) is not the full file (%d bytes)", len(image), len(records), len(file))
	}
	genesis := provisionFT(t).Net
	genesisRoot, genesisCp := genesis.StateRoot(), genesis.Checkpoint()
	unchanged := func(what string) {
		t.Helper()
		if genesis.StateRoot() != genesisRoot || genesis.Checkpoint() != genesisCp {
			t.Fatalf("%s changed the replica: %+v root %s", what, genesis.Checkpoint(), genesis.StateRoot())
		}
	}
	// A record whose one entry is filed under a keypath that is not its
	// keys' is not a canonical delta: it does not decode.
	holder := []value.Value{chain.AddrFromUint(1_000_000).Value()}
	forgedRecord := wire.AppendFrame(nil, wire.MsgStateDelta, mustEncode(t, &chain.StateDelta{Contract: a.Contract, Fields: []chain.FieldDelta{
		{Name: "balances", Entries: []chain.EntryDelta{{Kind: chain.Overwrite, Keypath: "forged", Keys: holder, Value: value.Uint128(1)}}},
	}}))
	for name, image := range map[string][]byte{
		"an image without its trailer": bytes.Join(records[:len(records)-1], nil),
		"an image without a middle record": bytes.Join(append(append([][]byte{}, records[:2]...),
			records[3:]...), nil),
		"an image with a forged keypath": bytes.Join(slices.Concat(records[:2], [][]byte{forgedRecord}, records[3:]), nil),
	} {
		if applied, err := ApplyImage(genesis, image); applied || !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("%s: applied %v, %v; want ErrCorruptSnapshot", name, applied, err)
		}
		unchanged(name)
	}
	// A record naming a field the contract does not have is refused as
	// it is applied.
	unknown := mustEncode(t, &chain.StateDelta{Contract: a.Contract, Fields: []chain.FieldDelta{
		{Name: "no_such_field", Whole: &chain.EntryDelta{Kind: chain.Overwrite, Value: value.Uint128(1)}},
	}})
	bad := append(append([]byte{}, records[0]...), wire.AppendFrame(nil, wire.MsgStateDelta, unknown)...)
	bad = wire.AppendFrame(bad, wire.MsgSnapshotEnd, wire.EncodeSnapshotEnd(&wire.SnapshotEnd{Contracts: 1}))
	if _, err := ApplyImage(provisionFT(t).Net, bad); err == nil || !strings.Contains(err.Error(), "unknown field no_such_field") {
		t.Errorf("an image writing a field the contract lacks: %v, want the unknown field refused", err)
	}
	if applied, err := ApplyImage(genesis, bytes.Join(records, nil)); !applied || err != nil || genesis.StateRoot() != root {
		t.Fatalf("the whole image: applied %v, %v, root %s, want %s", applied, err, genesis.StateRoot(), root)
	}

	// A full file of the parent format: a valid state record, then a
	// whole-contract record (type 12), which no build reads any more.
	parent := t.TempDir()
	forged := append([]byte{}, records[0]...)
	forged = append(forged, records[1]...)
	forged = wire.AppendFrame(forged, 12, append(a.Contract[:], 0))
	forged = append(forged, bytes.Join(records[len(records)-2:], nil)...)
	writeFile(t, filepath.Join(parent, snapshotName(cp.Epoch)), forged)
	fresh := provisionFT(t).Net
	st, err := Open(parent)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Recover(fresh); !errors.Is(err, ErrCorruptSnapshot) || !strings.Contains(err.Error(), "msg(12)") {
		t.Fatalf("recovering a parent-format full file: %v, want ErrCorruptSnapshot", err)
	}
	if fresh.StateRoot() != genesisRoot || fresh.Checkpoint() != genesisCp {
		t.Fatalf("a failed recovery left %+v root %s, genesis is %+v root %s", fresh.Checkpoint(), fresh.StateRoot(), genesisCp, genesisRoot)
	}
	if _, err := os.Stat(filepath.Join(parent, snapshotName(cp.Epoch))); err != nil {
		t.Fatalf("the refused file is gone: %v", err)
	}
}
