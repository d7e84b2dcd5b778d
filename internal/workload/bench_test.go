package workload_test

import (
	"testing"
	"time"

	"cosplit/internal/shard"
	"cosplit/internal/workload"
)

// BenchmarkProvision times what every role of an epoch_cf_bigstate
// cluster does before it serves: Provision(CFDonate()) — 100k accounts
// and the Crowdfunding deployment — then its first StateRoot. provision-ms
// and root-ms split the two.
func BenchmarkProvision(b *testing.B) {
	var provision, root time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		env, err := workload.Provision(workload.CFDonate(), true, shard.WithShards(3))
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		env.Net.StateRoot()
		provision, root = provision+t1.Sub(t0), root+time.Since(t1)
	}
	b.ReportMetric(float64(provision.Microseconds())/1e3/float64(b.N), "provision-ms")
	b.ReportMetric(float64(root.Microseconds())/1e3/float64(b.N), "root-ms")
}
