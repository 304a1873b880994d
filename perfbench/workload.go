package main

import (
	"fmt"

	"loadmax/internal/job"
	"loadmax/internal/online"
	"loadmax/internal/policy"
	"loadmax/internal/serve"
	"loadmax/internal/workload"
)

// Every backend runs loadmaxd's default topology (shards × machines at
// slack eps) and every workload offers Poisson jobs at load.
const (
	shards   = 4
	machines = 64
	eps      = 0.1
	load     = 1.5
)

// config is one workload: the tier it serves through and the jobs it
// offers. The load generator submits one job per call.
type config struct {
	name    string
	policy  string // admission policy spec (policy.Parse)
	groups  int    // backend groups behind a gateway (1 without one)
	top     rung   // the rung the timed path runs through
	fixture int    // records in the restored log
	timed   int    // jobs replayed per timed round
}

// configs lists the workloads by name. Routers and server, gateway and
// service settings are the loadmaxd and loadmaxgw defaults.
var configs = []config{
	{name: "rpc-durable", policy: "threshold", groups: 1, top: rDaemon, fixture: 200_000, timed: 16_000},
	{name: "gateway-mirror", policy: "delta-commit:delta=0.5", groups: 2, top: rGatewayMirror, fixture: 40_000, timed: 8_000},
}

func configByName(name string) (config, error) {
	for _, c := range configs {
		if c.name == name {
			return c, nil
		}
	}
	names := make([]string, len(configs))
	for i, c := range configs {
		names[i] = c.name
	}
	return config{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// routers returns the group and shard routers. They are stateless, so
// the partition below and the serving stack route every job alike.
func routers() (group, shard serve.Policy) { return serve.HashByID(), serve.HashByID() }

// stream is the ordered job sequence one backend shard receives: its
// slice of the fixture prefix, then its slice of the timed jobs. Exactly
// one load-generator goroutine submits a stream, one call at a time, so
// the shard sees the jobs in release order whatever the timing.
type stream struct {
	group, shard int
	prefix       []job.Job
	timed        []job.Job
}

// route mirrors gateway and serve routing, including their handling of
// out-of-range router results.
func route(gr, sr serve.Policy, groups int, j job.Job) (g, s int) {
	g = gr.Route(j, groups)
	if g < 0 || g >= groups {
		g = 0
	}
	s = sr.Route(j, shards)
	if s < 0 || s >= shards {
		s = ((s % shards) + shards) % shards
	}
	return g, s
}

// partition splits a release-ordered instance into one stream per
// (group, shard) that receives jobs: the first nPrefix jobs feed the
// fixture, the rest are timed. Streams are ordered by (group, shard).
func partition(inst []job.Job, nPrefix int, gr, sr serve.Policy, groups int) []*stream {
	byKey := make([]*stream, groups*shards)
	for i, j := range inst {
		g, s := route(gr, sr, groups, j)
		st := byKey[g*shards+s]
		if st == nil {
			st = &stream{group: g, shard: s}
			byKey[g*shards+s] = st
		}
		if i < nPrefix {
			st.prefix = append(st.prefix, j)
		} else {
			st.timed = append(st.timed, j)
		}
	}
	var out []*stream
	for _, st := range byKey {
		if st != nil {
			out = append(out, st)
		}
	}
	return out
}

// instance generates the workload's jobs for seed: fixture prefix first,
// timed jobs after, IDs 0..n-1 in release order.
func instance(c config, seed int64) []job.Job {
	return workload.Poisson(workload.Spec{
		N: c.fixture + c.timed, Eps: eps, Load: load, M: c.groups * shards * machines, Seed: seed,
	})
}

// reference replays every stream sequentially through a fresh policy
// instance — prefix, then timed jobs — and returns the expected decision
// of each timed job indexed by ID-base, plus the accepted mass fraction
// of the timed jobs summed in ID order.
func reference(b policy.Builder, streams []*stream, timed []job.Job) ([]online.Decision, float64, error) {
	base := timed[0].ID
	exp := make([]online.Decision, len(timed))
	for _, st := range streams {
		p, err := b.New(machines, eps)
		if err != nil {
			return nil, 0, err
		}
		for _, j := range st.prefix {
			p.Submit(j)
		}
		for _, j := range st.timed {
			exp[j.ID-base] = p.Submit(j)
		}
	}
	return exp, massFrac(timed, exp), nil
}

// massFrac is accepted processing time over offered processing time,
// summed in job order so equal decisions give bit-equal results.
func massFrac(timed []job.Job, decs []online.Decision) float64 {
	var acc, off float64
	for i, j := range timed {
		off += j.Proc
		if decs[i].Accepted {
			acc += j.Proc
		}
	}
	return acc / off
}
