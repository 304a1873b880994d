package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"loadmax/internal/core"
	"loadmax/internal/job"
	"loadmax/internal/obs"
	"loadmax/internal/online"
	"loadmax/internal/policy"
	"loadmax/internal/wal"
)

// parent maps each rung to the rung it adds one layer to; a layer's self
// time is its rung's per-job time minus its parent's. core and the stub
// wire have no parent: each stands alone.
var parent = map[rung]rung{
	rPolicy:        rCore,
	rServeMem:      rPolicy,
	rServeDurable:  rServeMem,
	rDaemon:        rServeDurable,
	rGateway:       rDaemon,
	rGatewayMirror: rGateway,
}

// selfTimes returns each measured rung's self time.
func selfTimes(t map[rung]float64) map[rung]float64 {
	self := make(map[rung]float64, len(t))
	for r, v := range t {
		if p, ok := parent[r]; ok {
			self[r] = v - t[p]
		} else {
			self[r] = v
		}
	}
	return self
}

// pathRungs lists the rungs whose self times make up a top rung's path
// when every layer is measured on its own: the wire enters through the
// stub rung, not as the daemon's excess over durable serve, so their
// difference is what the layers do not explain in isolation.
func pathRungs(top rung) []rung {
	base := []rung{rCore, rPolicy, rServeMem, rServeDurable}
	switch top {
	case rDaemon:
		return append(base, rWireStub)
	case rGatewayMirror:
		return append(base, rWireStub, rGateway, rGatewayMirror)
	default:
		return base
	}
}

// reconcile sums the path's self times and returns the share of the
// untraced end-to-end per-job time e2e they leave unexplained (negative
// when they over-explain it).
func reconcile(t map[rung]float64, top rung, e2e float64) (sum, unattributed float64) {
	self := selfTimes(t)
	for _, r := range pathRungs(top) {
		sum += self[r]
	}
	return sum, (e2e - sum) / e2e
}

// reconcileTolerance is the share of the end-to-end per-job time the
// ladder may leave unattributed and still count as reconciled.
const reconcileTolerance = 0.25

// ladderPasses is how many sequential passes time the engine rungs,
// after one untimed warm-up pass; the median is kept.
const ladderPasses = 5

// overheadPairs is how many untraced/traced round pairs of the
// workload's own path measure the tracing overhead.
const overheadPairs = 3

// walCommitsPerStream bounds the fsyncs of the WAL rung per stream.
const walCommitsPerStream = 500

type submitter interface {
	Submit(job.Job) online.Decision
}

// sequentialNs replays every stream through fresh instances from mk —
// prefix untimed, timed jobs timed — and returns the median over passes
// of ns per timed job. With check set, every decision must equal the
// reference.
func (b *bench) sequentialNs(mk func() (submitter, error), check bool) (float64, error) {
	var passes []float64
	for p := 0; p <= ladderPasses; p++ {
		var total time.Duration
		jobs := 0
		for _, st := range b.streams {
			s, err := mk()
			if err != nil {
				return 0, err
			}
			for _, j := range st.prefix {
				s.Submit(j)
			}
			base := b.timed[0].ID
			got := b.got[:0]
			t0 := time.Now()
			for _, j := range st.timed {
				got = append(got, s.Submit(j))
			}
			total += time.Since(t0)
			jobs += len(st.timed)
			if !check {
				continue
			}
			for i, j := range st.timed {
				if !online.SameDecision(got[i], b.exp[j.ID-base]) {
					return 0, fmt.Errorf("sequential job %d: got %v, reference %v", j.ID, got[i], b.exp[j.ID-base])
				}
			}
		}
		if p > 0 {
			passes = append(passes, float64(total.Nanoseconds())/float64(jobs))
		}
	}
	return median(passes), nil
}

// walRung appends the timed records straight to wal.Writers, one log
// per stream, committing every group records as a shard with that drain
// size would. It returns ns per Append and the Commit durations (µs).
func (b *bench) walRung(group int) (appendNs float64, commits []float64, err error) {
	dir := filepath.Join(b.work, "walrung")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, nil, err
	}
	defer os.RemoveAll(dir)
	var appendTotal time.Duration
	records := 0
	for k, st := range b.streams {
		w, err := wal.Create(filepath.Join(dir, fmt.Sprintf("s%d.log", k)), wal.Options{})
		if err != nil {
			return 0, nil, err
		}
		for i, n := 0, 0; i < len(st.timed) && n < walCommitsPerStream; n++ {
			end := min(i+group, len(st.timed))
			t0 := time.Now()
			for _, j := range st.timed[i:end] {
				dec, _ := b.expected(j)
				if _, err := w.Append(j, dec); err != nil {
					w.Close()
					return 0, nil, err
				}
			}
			t1 := time.Now()
			if err := w.Commit(); err != nil {
				w.Close()
				return 0, nil, err
			}
			appendTotal += t1.Sub(t0)
			commits = append(commits, float64(time.Since(t1).Nanoseconds())/1e3)
			records += end - i
			i = end
		}
		if err := w.Close(); err != nil {
			return 0, nil, err
		}
	}
	return float64(appendTotal.Nanoseconds()) / float64(records), commits, nil
}

// perJobNs is a round's per-job time: its median call latency.
func perJobNs(rr *roundResult) float64 { return 1e3 * p50Us(rr) }

func jobsPerS(rr *roundResult) float64 { return float64(rr.ok) / rr.wall.Seconds() }

// spanRecorder returns a recorder whose ring holds every span of a round.
func (b *bench) spanRecorder() *obs.SpanRecorder {
	return obs.NewSpanRecorder(nil, obs.WithSpanRing(2*b.c.timed+1024))
}

// stageUs collects one stage of every span in the ring, in µs.
func stageUs(spans []obs.Span, st obs.Stage) []float64 {
	out := make([]float64, 0, len(spans))
	for i := range spans {
		out = append(out, float64(spans[i].Stages[st])/1e3)
	}
	return out
}

// ladderResult is the traced run's output: per-layer metrics plus the
// reconciliation for the stamp.
type ladderResult struct {
	metrics    map[string]float64
	e2eNs      float64
	pathNs     float64
	reconciled bool
	samples    map[string]int
	calls      int
	failed     int
}

// runLadder replays the streams rung by rung, from the engine up to the
// gateway with a mirrored standby, then the workload's own path once
// untraced and once traced.
func runLadder(b *bench) (*ladderResult, error) {
	out := &ladderResult{metrics: map[string]float64{}, samples: map[string]int{}}
	m := out.metrics
	t := map[rung]float64{}
	c := b.c

	var err error
	if t[rCore], err = b.sequentialNs(func() (submitter, error) {
		return core.New(machines, eps)
	}, c.policy == policy.SpecThreshold); err != nil {
		return nil, err
	}
	if t[rPolicy], err = b.sequentialNs(func() (submitter, error) {
		return b.builder.New(machines, eps)
	}, true); err != nil {
		return nil, err
	}
	thresholdViaPolicy, err := b.sequentialNs(func() (submitter, error) {
		return policy.ThresholdBuilder().New(machines, eps)
	}, c.policy == policy.SpecThreshold)
	if err != nil {
		return nil, err
	}

	wireCalls, wireOK := 0, 0
	round := func(r rung, tr tracing) (*roundResult, error) {
		rr, err := b.round(r, tr, r == rGatewayMirror)
		if err != nil {
			return nil, err
		}
		out.calls += rr.calls
		out.failed += rr.calls - rr.ok
		if r >= rWireStub {
			wireCalls += rr.calls
			wireOK += rr.ok
		}
		return rr, nil
	}
	rounds := map[rung]*roundResult{}
	for r := rServeMem; r <= rGatewayMirror; r++ {
		if rounds[r], err = round(r, tracing{}); err != nil {
			return nil, err
		}
		t[r] = perJobNs(rounds[r])
	}

	// Stage breakdowns come from traced rounds of durable serve and the
	// daemon; the workload's own path runs untraced and traced back to
	// back for the tracing overhead.
	recServe, recDaemon := b.spanRecorder(), b.spanRecorder()
	if _, err := round(rServeDurable, tracing{backend: recServe}); err != nil {
		return nil, err
	}
	if _, err := round(rDaemon, tracing{backend: recDaemon}); err != nil {
		return nil, err
	}
	top := c.top
	var plain, plainNs, plainP99, traced []float64
	var e2e *roundResult
	for k := 0; k < overheadPairs; k++ {
		if e2e, err = round(top, tracing{}); err != nil {
			return nil, err
		}
		plain = append(plain, jobsPerS(e2e))
		plainNs = append(plainNs, perJobNs(e2e))
		plainP99 = append(plainP99, percentile(nsToUs(e2e.lat), 0.99))
		tr, err := round(top, tracing{backend: b.spanRecorder(), front: b.spanRecorder()})
		if err != nil {
			return nil, err
		}
		traced = append(traced, jobsPerS(tr))
	}

	// The workload's own tail, which the end-to-end run leaves out.
	m["verdict_p99_us"] = median(plainP99)

	// Engine and policy.
	m["core.decide_ns"] = t[rCore]
	m["policy.decide_ns"] = t[rPolicy]
	m["policy.adapter_ns"] = thresholdViaPolicy - t[rCore]

	// Serve.
	self := selfTimes(t)
	m["serve.self_ns_per_job"] = self[rServeMem]
	serveSpans := recServe.Recent()
	m["serve.queue_wait_p50_us"] = percentile(stageUs(serveSpans, obs.StageQueue), 0.5)
	m["serve.queue_wait_p99_us"] = percentile(stageUs(serveSpans, obs.StageQueue), 0.99)
	out.samples["serve_spans"] = len(serveSpans)
	durable := rounds[rServeDurable].delta
	m["serve.jobs_per_drain"] = float64(sum(durable.shardJobs)) / float64(durable.batches)
	m["serve.shard_skew"] = skew(e2e.delta.shardJobs)

	// WAL.
	group := max(1, int(math.Round(m["serve.jobs_per_drain"])))
	appendNs, commits, err := b.walRung(group)
	if err != nil {
		return nil, fmt.Errorf("wal rung: %w", err)
	}
	m["wal.append_ns"] = appendNs
	out.samples["wal_commits"] = len(commits)
	m["wal.commit_p50_us"] = percentile(commits, 0.5)
	m["wal.park_p50_us"] = percentile(stageUs(serveSpans, obs.StageWAL), 0.5)
	m["wal.park_p99_us"] = percentile(stageUs(serveSpans, obs.StageWAL), 0.99)
	m["wal.self_ns_per_job"] = self[rServeDurable]
	m["wal.commits_per_kjob"] = 1000 * float64(durable.fsyncs) / float64(durable.walRecords)
	m["wal.bytes_per_job"] = float64(durable.walBytes) / float64(durable.walRecords)
	m["wal.restore_rec_per_s"] = float64(sumInts(b.fix.records)) / rounds[rServeDurable].restore.Seconds()

	// Wire.
	stubLat := nsToUs(rounds[rWireStub].lat)
	m["netserve.rtt_stub_p50_us"] = percentile(stubLat, 0.5)
	m["netserve.rtt_stub_p99_us"] = percentile(stubLat, 0.99)
	out.samples["wire_stub_calls"] = len(stubLat)
	m["netserve.self_us"] = p50Us(rounds[rDaemon]) - p50Us(rounds[rServeDurable])
	daemonSpans := recDaemon.Recent()
	m["netserve.decode_p50_us"] = percentile(stageUs(daemonSpans, obs.StageDecode), 0.5)
	m["netserve.reply_p50_us"] = percentile(stageUs(daemonSpans, obs.StageReply), 0.5)
	m["netserve.client_p50_us"] = percentile(clientShareUs(daemonSpans, rounds[rDaemon]), 0.5)
	out.samples["daemon_spans"] = len(daemonSpans)
	m["netserve.shed_frac"] = float64(wireCalls-wireOK) / float64(wireCalls)

	// Gateway.
	m["gateway.hop_p50_us"] = p50Us(rounds[rGateway]) - p50Us(rounds[rDaemon])
	m["gateway.mirror_self_us"] = p50Us(rounds[rGatewayMirror]) - p50Us(rounds[rGateway])
	mirrored := rounds[rGatewayMirror]
	m["gateway.jobs_per_backend_call"] = float64(mirrored.ok) / float64(mirrored.delta.rxFrames)
	m["gateway.mirror_lag_p99"] = percentile(mirrored.lag, 0.99)
	out.samples["mirror_lag"] = len(mirrored.lag)

	// Tracing and reconciliation.
	m["obs.trace_overhead_pct"] = 100 * (1 - median(traced)/median(plain))
	out.e2eNs = median(plainNs)
	var unattributed float64
	out.pathNs, unattributed = reconcile(t, top, out.e2eNs)
	m["ladder.unattributed_frac"] = unattributed
	out.reconciled = math.Abs(unattributed) <= reconcileTolerance
	for r, v := range t {
		m[fmt.Sprintf("ladder.r%d_%s_ns", r, rungNames[r])] = v
	}
	for r := rServeMem; r <= rGatewayMirror; r++ {
		out.samples[fmt.Sprintf("r%d_calls", r)] = len(rounds[r].lat)
	}
	return out, nil
}

func p50Us(rr *roundResult) float64 { return percentile(nsToUs(rr.lat), 0.5) }

// clientShareUs is, per traced daemon call, the load generator's round
// trip minus the server's span: client encode/decode, the loopback hop
// and the wakeups either side.
func clientShareUs(spans []obs.Span, rr *roundResult) []float64 {
	rtt := make(map[int]int64, len(rr.ids))
	for i, id := range rr.ids {
		rtt[id] = rr.lat[i]
	}
	var out []float64
	for i := range spans {
		if ns, ok := rtt[int(spans[i].JobID)]; ok {
			out = append(out, float64(ns-spans[i].Total())/1e3)
		}
	}
	return out
}

// skew is max/mean decisions per shard.
func skew(perShard []int64) float64 {
	if len(perShard) == 0 {
		return math.NaN()
	}
	var top int64
	for _, n := range perShard {
		top = max(top, n)
	}
	return float64(top) * float64(len(perShard)) / float64(sum(perShard))
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

func sumInts(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}
