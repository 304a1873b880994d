package policy_test

import (
	"testing"

	"loadmax/internal/job"
	"loadmax/internal/online"
	"loadmax/internal/policy"
	"loadmax/internal/serve"
	"loadmax/internal/workload"
)

// shardStream is the job stream one backend shard decides in a
// two-group, four-shard, 64-machine deployment behind the gateway: a
// 48k-job Poisson instance at load 1.5 and ε = 0.1, routed by job-ID
// hash to group 0, then to shard 0 — what that shard's WAL replays on
// restart.
func shardStream() []job.Job {
	inst := workload.Poisson(workload.Spec{N: 48000, Eps: 0.1, Load: 1.5, M: 2 * 4 * 64, Seed: 1})
	r := serve.HashByID()
	var out []job.Job
	for _, j := range inst {
		if r.Route(j, 2) == 0 && r.Route(j, 4) == 0 {
			out = append(out, j)
		}
	}
	return out
}

// BenchmarkDeltaCommitSubmit times δ-commitment (δ = 0.5) deciding one
// shard's stream on 64 machines, starting over from an empty state each
// time the stream runs out.
func BenchmarkDeltaCommitSubmit(b *testing.B) {
	jobs := shardStream()
	d, err := policy.NewDeltaCommit(64, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i, k := 0, 0; i < b.N; i, k = i+1, k+1 {
		if k == len(jobs) {
			d.Reset()
			k = 0
		}
		sink = d.Submit(jobs[k])
	}
}

var sink online.Decision
