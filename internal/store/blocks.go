package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"cosplit/internal/shard"
	"cosplit/internal/wire"
)

// Blocks returns the journaled FinalBlocks with epochs in [from, to),
// in ascending epoch order. Only blocks still in the journal are
// servable: a snapshot compaction truncates the journal, so epochs at
// or before the last snapshot come back empty (the caller — the DS
// committee serving a replica catch-up — sends a state image instead).
// Serving reads through a handle of its own and writes nothing. The
// result may therefore start after from or end before to; blocks
// that are present are contiguous. A torn journal tail ends the scan
// at the last valid frame, exactly as recovery does.
func (s *Store) Blocks(from, to uint64) ([]*shard.FinalBlock, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil, errors.New("store: closed")
	}
	// The journal handle is positioned for append; flush pending
	// writes and scan through an independent read-only handle so the
	// writer's offset is untouched.
	if err := s.w.Flush(); err != nil {
		return nil, fmt.Errorf("store: blocks: %w", err)
	}
	f, err := os.Open(filepath.Join(s.dir, journalName))
	if err != nil {
		return nil, fmt.Errorf("store: blocks: %w", err)
	}
	defer f.Close()
	var blocks []*shard.FinalBlock
	// Only the blocks served are decoded: a record is placed by its
	// checkpoint, the epoch after its block's.
	_, err = readJournal(f, func(epoch uint64, payload []byte) (bool, error) {
		switch {
		case epoch <= from:
			return true, nil
		case epoch > to:
			return false, nil
		}
		// The block keeps its bytes: they are its seal.
		cb, err := wire.DecodeCheckpointBlock(bytes.Clone(payload))
		if err != nil {
			return false, nil
		}
		if cb.Block.Epoch >= from && cb.Block.Epoch < to {
			blocks = append(blocks, cb.Block)
		}
		return cb.Block.Epoch+1 < to, nil
	})
	if err != nil {
		return nil, err
	}
	return blocks, nil
}
