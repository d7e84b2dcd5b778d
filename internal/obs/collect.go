package obs

import "sync"

// StageCollector is a Recorder that keeps the summary of the most
// recently finalized epoch: the EpochSummary that FinalizeEpoch's
// EpochStats embeds, for a caller that does not keep those.
type StageCollector struct {
	Nop // all events except EpochFinalized are ignored

	mu   sync.Mutex
	last EpochSummary
}

// NewStageCollector creates an empty collector.
func NewStageCollector() *StageCollector { return &StageCollector{} }

// EpochFinalized implements Recorder.
func (c *StageCollector) EpochFinalized(s EpochSummary) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.last = s
}

// Last returns the most recently finalized epoch's summary.
func (c *StageCollector) Last() EpochSummary {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}
