package rpc

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/shard"
	"cosplit/internal/workload"
)

// HammerConfig drives a closed-loop load run against a serving node:
// Workers goroutines each submit a transaction, poll for its receipt,
// record the submit-to-commit latency, and repeat until Total
// transactions have been pushed through.
type HammerConfig struct {
	// URL of the JSON-RPC server.
	URL string
	// URLs, when non-empty, spreads the load over several servers
	// (e.g. a scaled-out lookup tier): worker i talks to
	// URLs[i % len(URLs)], round-robin. URL is ignored when set.
	URLs []string
	// Workers is the closed-loop concurrency (default 8).
	Workers int
	// Total transactions to submit (default 1000).
	Total int
	// Next produces the transaction stream. The hammer serialises
	// calls, so the generator need not be concurrency-safe.
	Next func() *chain.Tx
	// Poll is the receipt polling interval (default 5ms).
	Poll time.Duration
	// Timeout bounds the wait for any one receipt (default 30s); a
	// transaction whose receipt never arrives counts as Lost.
	Timeout time.Duration
}

// HammerReport is the outcome of a hammer run.
type HammerReport struct {
	Submitted int           `json:"submitted"`
	Committed int           `json:"committed"`
	Failed    int           `json:"failed"`   // committed with Success == false
	Rejected  int           `json:"rejected"` // submission refused (or failed before reaching the server)
	Lost      int           `json:"lost"`     // submission unanswered (-32001), or no receipt within Timeout
	Elapsed   time.Duration `json:"elapsed_ns"`
	TPS       float64       `json:"tps"`
	P50       time.Duration `json:"p50_ns"`
	P95       time.Duration `json:"p95_ns"`
	P99       time.Duration `json:"p99_ns"`
	Max       time.Duration `json:"max_ns"`
}

// WorkloadStream provisions a client-side environment for the
// workload and returns its transaction generator. Provisioning is
// deterministic, so a stream built with the same workload and shard
// count as the serving cluster's genesis produces transactions that
// are valid (funded senders, correct nonces) against its chain.
func WorkloadStream(w *workload.Workload, shards int) (func() *chain.Tx, error) {
	env, err := workload.Provision(w, true, shard.WithShards(shards))
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	return func() *chain.Tx {
		mu.Lock()
		defer mu.Unlock()
		return w.Next(env)
	}, nil
}

// RunHammer executes the closed loop and reports latency percentiles.
func RunHammer(cfg HammerConfig) (*HammerReport, error) {
	if cfg.Next == nil {
		return nil, fmt.Errorf("hammer: no transaction stream")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Total <= 0 {
		cfg.Total = 1000
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 5 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if len(cfg.URLs) == 0 {
		cfg.URLs = []string{cfg.URL}
	}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		rep       HammerReport
		firstErr  error
	)
	next := make(chan *chain.Tx)
	done := make(chan struct{})
	go func() {
		defer close(next)
		for i := 0; i < cfg.Total; i++ {
			select {
			case next <- cfg.Next():
			case <-done:
				return
			}
		}
	}()

	// One transport for every worker, with a connection to a server
	// for each. With fewer kept idle, a worker's connection would be
	// closed between its calls; with no cap on connections, a call
	// made before the worker's last connection is back in the pool
	// would dial one more.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConns = cfg.Workers
	transport.MaxIdleConnsPerHost = cfg.Workers
	transport.MaxConnsPerHost = cfg.Workers
	defer transport.CloseIdleConnections()

	started := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		url := cfg.URLs[i%len(cfg.URLs)]
		go func() {
			defer wg.Done()
			c := newClient(url, transport)
			for tx := range next {
				start := time.Now()
				id, err := c.SendTx(tx)
				if err != nil {
					// No answer (codeUnavailable) is a lost submission, one
					// the client could retry; only a refusal is a rejection.
					var re *rpcError
					mu.Lock()
					rep.Submitted++
					if errors.As(err, &re) && re.Code == codeUnavailable {
						rep.Lost++
					} else {
						rep.Rejected++
					}
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					continue
				}
				lat, rc := awaitReceipt(c, id, cfg.Poll, cfg.Timeout, start)
				mu.Lock()
				rep.Submitted++
				switch {
				case rc == nil:
					rep.Lost++
				case rc.Success:
					rep.Committed++
					latencies = append(latencies, lat)
				default:
					rep.Failed++
					latencies = append(latencies, lat)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(done)
	rep.Elapsed = time.Since(started)

	if rep.Committed == 0 && firstErr != nil {
		return nil, fmt.Errorf("hammer: no transaction committed: %w", firstErr)
	}
	if secs := rep.Elapsed.Seconds(); secs > 0 {
		rep.TPS = float64(rep.Committed+rep.Failed) / secs
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rep.P50 = percentile(latencies, 0.50)
	rep.P95 = percentile(latencies, 0.95)
	rep.P99 = percentile(latencies, 0.99)
	if n := len(latencies); n > 0 {
		rep.Max = latencies[n-1]
	}
	return &rep, nil
}

func awaitReceipt(c *Client, id uint64, poll, timeout time.Duration, start time.Time) (time.Duration, *ReceiptResult) {
	deadline := start.Add(timeout)
	for {
		rc, err := c.GetReceipt(id)
		if err == nil && rc != nil {
			return time.Since(start), rc
		}
		if time.Now().After(deadline) {
			return 0, nil
		}
		time.Sleep(poll)
	}
}

// percentile reads the p-quantile from latencies (sorted ascending).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// PrintHammer renders a hammer report for the terminal.
func PrintHammer(w io.Writer, r *HammerReport) {
	fmt.Fprintf(w, "hammer: %d submitted, %d committed, %d failed, %d rejected, %d lost in %v (%.0f tx/s)\n",
		r.Submitted, r.Committed, r.Failed, r.Rejected, r.Lost, r.Elapsed.Round(time.Millisecond), r.TPS)
	fmt.Fprintf(w, "submit-to-commit latency: p50 %v  p95 %v  p99 %v  max %v\n",
		r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond))
}
