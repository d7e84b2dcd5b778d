package node

import "time"

// clusterDS forwards role options to the DS committee.
func clusterDS(opts ...DSOption) ClusterOption {
	return func(c *clusterConfig) { c.dsOpts = append(c.dsOpts, opts...) }
}

// clusterLookup forwards role options to every lookup node.
func clusterLookup(opts ...LookupOption) ClusterOption {
	return func(c *clusterConfig) { c.lookupOpts = append(c.lookupOpts, opts...) }
}

// dsCollectTimeout bounds how long the committee waits for MicroBlocks
// each epoch before declaring the stragglers transport-lost (default
// 2s; fault tests shorten it).
func dsCollectTimeout(d time.Duration) DSOption {
	return func(c *dsConfig) { c.timeout = d }
}

// lookupReceiptCap bounds the lookup's receipt log, the only one in a
// cluster, to the n most recent receipts (default DefaultReceiptCap,
// 100000). Older receipts are evicted FIFO; a client that polls too
// late simply sees nil, exactly as if the receipt's FinalBlock
// broadcast had been lost.
func lookupReceiptCap(n int) LookupOption {
	return func(c *lookupConfig) {
		if n > 0 {
			c.receiptCap = n
		}
	}
}
