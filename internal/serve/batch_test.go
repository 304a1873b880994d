package serve

import (
	"errors"
	"sync"
	"testing"

	"loadmax/internal/job"
	"loadmax/internal/obs"
	"loadmax/internal/online"
	"loadmax/internal/workload"
)

// submitAllBatched fans inst across g goroutines (striped, so each
// goroutine's subsequence stays release-ordered) and submits each
// stripe in batches of batchSize. Returns the number of accepted jobs.
func submitAllBatched(t *testing.T, svc *Service, inst job.Instance, g, batchSize int) int {
	t.Helper()
	var wg sync.WaitGroup
	accepted := make([]int, g)
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var stripe []job.Job
			for i := w; i < len(inst); i += g {
				stripe = append(stripe, inst[i])
			}
			for off := 0; off < len(stripe); off += batchSize {
				chunk := stripe[off:min(off+batchSize, len(stripe))]
				for k, r := range svc.SubmitBatch(chunk) {
					if r.Err != nil {
						t.Errorf("submitter %d job %d: %v", w, chunk[k].ID, r.Err)
						return
					}
					if r.Dec.JobID != chunk[k].ID {
						t.Errorf("submitter %d: decision for job %d, want %d", w, r.Dec.JobID, chunk[k].ID)
						return
					}
					if r.Dec.Accepted {
						accepted[w]++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, a := range accepted {
		total += a
	}
	return total
}

// TestSubmitBatchReplayEquivalence is the correctness claim of the
// batched path: many goroutines submitting batches produce, per shard,
// exactly the decision stream a lone sequential Threshold produces on
// that shard's jobs — batching amortizes the handoff, never the
// semantics. Run under -race this also exercises the batch request
// scatter/gather.
func TestSubmitBatchReplayEquivalence(t *testing.T) {
	for _, policy := range []Policy{HashByID(), LengthClass(), RoundRobin()} {
		t.Run(policy.Name(), func(t *testing.T) {
			inst := workload.Poisson(workload.Spec{N: 4000, Eps: 0.1, M: 4, Load: 2, Seed: 7})
			svc, err := New(4, 4, 0.1,
				WithPolicy(policy), WithDecisionLog(), WithQueueDepth(64), WithBatchSize(8))
			if err != nil {
				t.Fatal(err)
			}
			accepted := submitAllBatched(t, svc, inst, 8, 37)
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
			if err := svc.VerifyReplay(); err != nil {
				t.Fatal(err)
			}
			var submitted, snapAccepted int64
			for _, snap := range svc.Snapshot() {
				submitted += snap.Submitted
				snapAccepted += snap.Accepted
			}
			if submitted != int64(len(inst)) {
				t.Fatalf("shards saw %d submissions, want %d", submitted, len(inst))
			}
			if snapAccepted != int64(accepted) {
				t.Fatalf("snapshot accepted %d, callers saw %d", snapAccepted, accepted)
			}
		})
	}
}

// TestSubmitBatchMatchesPerJob submits the same instance to two
// identically configured services — one job at a time, and in batches —
// from a single sequential caller, and requires bit-identical decisions
// job for job. This is the transport-only claim at its sharpest: same
// order in, same commitments out, whatever the framing.
func TestSubmitBatchMatchesPerJob(t *testing.T) {
	inst := workload.Poisson(workload.Spec{N: 1500, Eps: 0.2, M: 4, Load: 2, Seed: 19})
	mk := func() *Service {
		svc, err := New(3, 4, 0.2, WithDecisionLog(), WithQueueDepth(32), WithBatchSize(8))
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}

	perJob := mk()
	single := make(map[int]online.Decision, len(inst))
	for _, j := range inst {
		dec, err := perJob.Submit(j)
		if err != nil {
			t.Fatal(err)
		}
		single[j.ID] = dec
	}
	if err := perJob.Close(); err != nil {
		t.Fatal(err)
	}

	batched := mk()
	for off := 0; off < len(inst); off += 64 {
		chunk := inst[off:min(off+64, len(inst))]
		for k, r := range batched.SubmitBatch(chunk) {
			if r.Err != nil {
				t.Fatalf("job %d: %v", chunk[k].ID, r.Err)
			}
			want := single[chunk[k].ID]
			if !online.SameDecision(want, r.Dec) {
				t.Fatalf("job %d: per-job decided %+v, batched decided %+v", chunk[k].ID, want, r.Dec)
			}
		}
	}
	if err := batched.Close(); err != nil {
		t.Fatal(err)
	}
	if err := batched.VerifyReplay(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitBatchDurable proves a batch's group commit is real
// durability: after a batched run and a plain Close (no checkpoint), the
// WAL alone must reconstruct every decision in Restore, and the restored
// counters must account for the whole instance.
func TestSubmitBatchDurable(t *testing.T) {
	dir := t.TempDir()
	inst := workload.Poisson(workload.Spec{N: 600, Eps: 0.2, M: 4, Load: 1.5, Seed: 5})
	svc, err := New(2, 4, 0.2, WithDurability(dir), WithDecisionLog())
	if err != nil {
		t.Fatal(err)
	}
	submitAllBatched(t, svc, inst, 4, 25)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.VerifyReplay(); err != nil {
		t.Fatal(err)
	}

	rec, err := Restore(dir)
	if err != nil {
		t.Fatalf("restore after batched run: %v", err)
	}
	var submitted int64
	for _, snap := range rec.Snapshot() {
		submitted += snap.Submitted
	}
	if submitted != int64(len(inst)) {
		t.Fatalf("restored service holds %d submissions, want %d", submitted, len(inst))
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitBatchBackpressure: under the Reject policy a full shard
// queue fails exactly that sub-batch with ErrBackpressure — the batch
// call itself never blocks and never lies about what was submitted.
func TestSubmitBatchBackpressure(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 16)
	svc, err := New(1, 2, 0.2,
		WithQueueDepth(1), WithBackpressure(Reject),
		withBatchHook(func() { entered <- struct{}{}; <-gate }))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// First submission is drained immediately and parks at the hook.
	go svc.Submit(job.Job{ID: 1, Proc: 1, Deadline: 100})
	<-entered
	// Second fills the queue (depth 1).
	go svc.Submit(job.Job{ID: 2, Proc: 1, Deadline: 100})
	for {
		svc.mu.RLock()
		depth := svc.shards[0].q.Len()
		svc.mu.RUnlock()
		if depth == 1 {
			break
		}
	}

	// The whole sub-batch must bounce with ErrBackpressure.
	res := svc.SubmitBatch([]job.Job{
		{ID: 3, Proc: 1, Deadline: 100},
		{ID: 4, Proc: 1, Deadline: 100},
	})
	for i, r := range res {
		if !errors.Is(r.Err, ErrBackpressure) {
			t.Fatalf("result %d = %+v, want ErrBackpressure", i, r)
		}
	}
	close(gate)
}

// TestSubmitBatchClosed: after Close every job in a batch reports
// ErrClosed.
func TestSubmitBatchClosed(t *testing.T) {
	svc, err := New(1, 2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	res := svc.SubmitBatch([]job.Job{{ID: 1, Proc: 1, Deadline: 10}, {ID: 2, Proc: 1, Deadline: 10}})
	for i, r := range res {
		if !errors.Is(r.Err, ErrClosed) {
			t.Fatalf("result %d = %+v, want ErrClosed", i, r)
		}
	}
}

// TestSubmitBatchSpan: a traced batch fills one span with the aggregate
// contract — queue/decide stages populated from one clock pair per
// sub-batch, WAL stage present under durability, shard attribution and a
// dominant verdict — while VerifyReplay still holds with tracing on.
func TestSubmitBatchSpan(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewSpanRecorder(reg, obs.WithSpanRing(64), obs.WithSlowLog(nil))
	inst := workload.Poisson(workload.Spec{N: 400, Eps: 0.2, M: 4, Load: 2, Seed: 31})
	svc, err := New(2, 4, 0.2, WithDurability(t.TempDir()), WithDecisionLog(), WithSpans(rec))
	if err != nil {
		t.Fatal(err)
	}
	const batchSize = 50
	batches := 0
	for off := 0; off < len(inst); off += batchSize {
		chunk := inst[off:min(off+batchSize, len(inst))]
		var sp obs.Span
		sp.JobID = int64(chunk[0].ID)
		sp.Start = rec.Now()
		for k, r := range svc.SubmitBatchSpan(chunk, &sp) {
			if r.Err != nil {
				t.Fatalf("job %d: %v", chunk[k].ID, r.Err)
			}
		}
		rec.Finish(&sp)
		batches++
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.VerifyReplay(); err != nil {
		t.Fatalf("traced batched stream diverged: %v", err)
	}
	if got := rec.Finished(); got != uint64(batches) {
		t.Fatalf("finished spans = %d, want %d (one per batch, not per job)", got, batches)
	}
	for _, sp := range rec.Recent() {
		if sp.Stages[obs.StageDecide] <= 0 || sp.Stages[obs.StageQueue] <= 0 {
			t.Fatalf("batch span for %d missing serve stages: %+v", sp.JobID, sp.Stages)
		}
		if sp.Stages[obs.StageWAL] <= 0 {
			t.Fatalf("durable batch span for %d has no WAL stage: %+v", sp.JobID, sp.Stages)
		}
		if sp.Shard < 0 || int(sp.Shard) >= svc.Shards() {
			t.Fatalf("batch span for %d has shard %d", sp.JobID, sp.Shard)
		}
		if sp.Verdict != obs.VerdictAccept && sp.Verdict != obs.VerdictReject {
			t.Fatalf("batch span for %d has verdict %q", sp.JobID, sp.Verdict)
		}
	}
}

// TestSubmitBatchPooledAllocs is the guard for the pooled batch path:
// an untraced, steady-state SubmitBatch of four jobs that land on four
// different shards allocates only the result slice it returns — the
// per-shard sub-batch requests, their job and result slices, done
// channels and the routing scratch all come from the pool.
func TestSubmitBatchPooledAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops items under -race; alloc counts are not meaningful")
	}
	const shards = 4
	svc, err := New(shards, 2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// One job per shard, found through the service's own router.
	var jobs []job.Job
	used := map[int]bool{}
	for id := 1; len(jobs) < shards; id++ {
		j := job.Job{ID: id, Proc: 0.001, Deadline: 1e12}
		if sh := svc.Policy().Route(j, shards); !used[sh] {
			used[sh] = true
			jobs = append(jobs, j)
		}
	}
	submit := func() {
		for _, r := range svc.SubmitBatch(jobs) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	for i := 0; i < 100; i++ {
		submit() // warm the pools and the shard scratch
	}
	if allocs := testing.AllocsPerRun(500, submit); allocs > 1 {
		t.Fatalf("untraced SubmitBatch of %d jobs over %d shards allocates %.2f times per call, want ≤ 1", len(jobs), shards, allocs)
	}
}
