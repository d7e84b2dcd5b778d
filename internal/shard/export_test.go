package shard

// TouchedPooledOverlays counts the pooled shard overlays that hold
// writes.
func (n *Network) TouchedPooledOverlays() int {
	touched := 0
	for _, pool := range n.ovPool {
		for _, ov := range pool {
			if ov.Touched() {
				touched++
			}
		}
	}
	return touched
}
