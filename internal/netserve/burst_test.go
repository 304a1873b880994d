package netserve

import (
	"bufio"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"loadmax/internal/job"
	"loadmax/internal/obs"
	"loadmax/internal/online"
	"loadmax/internal/serve"
)

// recordingAdmitter wraps an Admitter and records the jobs of every
// SubmitBatchSpan call, in call order.
type recordingAdmitter struct {
	Admitter
	mu    sync.Mutex
	calls [][]job.Job
}

func (a *recordingAdmitter) SubmitBatchSpan(jobs []job.Job, sp *obs.Span) []serve.BatchResult {
	a.mu.Lock()
	a.calls = append(a.calls, append([]job.Job(nil), jobs...))
	a.mu.Unlock()
	return a.Admitter.SubmitBatchSpan(jobs, sp)
}

func (a *recordingAdmitter) callIDs() [][]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([][]int, len(a.calls))
	for i, c := range a.calls {
		for _, j := range c {
			out[i] = append(out[i], j.ID)
		}
	}
	return out
}

// pipeHandshake dials the pipe listener and completes the HELLO
// exchange, returning the raw connection and its reader.
func pipeHandshake(t *testing.T, ln *pipeListener) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc := ln.dial(t)
	if _, err := nc.Write(appendHello(nil)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	payload, err := readFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeHelloAck(payload); err != nil {
		t.Fatal(err)
	}
	return nc, br
}

// submitBurst encodes SUBMIT frames for jobs, request id i+1 for job i.
func submitBurst(jobs []job.Job) []byte {
	var buf []byte
	for i, j := range jobs {
		buf = appendSubmit(buf, submitFrame{ID: uint64(i + 1), Job: j})
	}
	return buf
}

// TestNetBurstOneCall: k SUBMIT frames written in one Write are one read
// burst, so they reach the Admitter as ONE SubmitBatchSpan call of k
// jobs in wire order, and their k verdicts leave in one flush.
func TestNetBurstOneCall(t *testing.T) {
	checkGoroutines(t)
	svc := newTestService(t, 2, 8)
	defer svc.Close()
	adm := &recordingAdmitter{Admitter: svc}
	reg := obs.NewRegistry()
	ln := newPipeListener()
	srv, err := ServeListener(adm, ln, WithServerMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc, br := pipeHandshake(t, ln)
	defer nc.Close()

	const k = 7
	jobs := make([]job.Job, k)
	for i := range jobs {
		jobs[i] = testJob(100 + i)
	}
	if _, err := nc.Write(submitBurst(jobs)); err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		v := readVerdict(t, br)
		if v.ID != uint64(i+1) || v.Status != statusAccept {
			t.Fatalf("verdict %d = %+v, want accept for id %d", i, v, i+1)
		}
	}
	calls := adm.callIDs()
	if len(calls) != 1 || len(calls[0]) != k {
		t.Fatalf("SubmitBatchSpan calls = %v, want one call of %d jobs", calls, k)
	}
	for i, id := range calls[0] {
		if id != jobs[i].ID {
			t.Fatalf("call jobs %v, want wire order %v", calls[0], jobs)
		}
	}
	// The verdicts were all read, so the writer has flushed them — and
	// done so once. The write and the counter bump race only with the
	// client's read, so wait for the count rather than assume it.
	waitCounter(t, reg, "netserve_tx_flushes_total", 1)
	if got := reg.Histogram("netserve_request_seconds", nil).Count(); got != 1 {
		t.Fatalf("netserve_request_seconds samples = %d, want 1 per dispatch unit", got)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("netserve_tx_flushes_total").Value(); got != 1 {
		t.Fatalf("netserve_tx_flushes_total = %d, want 1", got)
	}
}

// waitCounter polls until the named counter reaches want.
func waitCounter(t *testing.T, reg *obs.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for reg.Counter(name).Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", name, reg.Counter(name).Value(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNetBurstCorruptTail: a corrupt frame behind k good ones in the
// same write ends the connection, but only after the k admitted frames
// were dispatched and answered — the reader never drops (or holds) an
// admitted frame on its way out — and Close still drains.
func TestNetBurstCorruptTail(t *testing.T) {
	checkGoroutines(t)
	svc := newTestService(t, 2, 8)
	defer svc.Close()
	ln := newPipeListener()
	srv, err := ServeListener(svc, ln)
	if err != nil {
		t.Fatal(err)
	}
	nc, br := pipeHandshake(t, ln)
	defer nc.Close()

	const k = 5
	jobs := make([]job.Job, k+1)
	for i := range jobs {
		jobs[i] = testJob(i + 1)
	}
	buf := submitBurst(jobs)
	buf[len(buf)-1] ^= 0xFF // the last frame's CRC no longer matches
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for range k {
		v := readVerdict(t, br)
		if v.Status != statusAccept {
			t.Fatalf("verdict %+v, want accept", v)
		}
		seen[v.ID] = true
	}
	for id := uint64(1); id <= k; id++ {
		if !seen[id] {
			t.Fatalf("no verdict for id %d (got %v)", id, seen)
		}
	}
	if _, err := readFrame(br, nil); err != io.EOF {
		t.Fatalf("after the corrupt frame: %v, want the server to close the connection", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	var decided int64
	for _, s := range svc.Snapshot() {
		decided += s.Submitted
	}
	if decided != k {
		t.Fatalf("service decided %d jobs, want %d", decided, k)
	}
}

// orderedAdmitter serializes dispatch units in a fixed order: a call
// whose first job is unit i's waits until units 0..i-1 have returned.
// With it, the units of one connection enter the service one after the
// other in wire order, so the test can check that each unit kept its
// jobs' wire order on every shard.
type orderedAdmitter struct {
	*serve.Service
	t     *testing.T
	first map[int]int // first job id → unit index
	mu    sync.Mutex
	cond  *sync.Cond
	next  int
}

func (a *orderedAdmitter) SubmitBatchSpan(jobs []job.Job, sp *obs.Span) []serve.BatchResult {
	idx, ok := a.first[jobs[0].ID]
	if !ok {
		// Not a unit the test expects: fail, but do not hold it, so a
		// wrong cut fails the test instead of hanging it.
		a.t.Errorf("dispatch unit starts at job %d, not at a unit boundary", jobs[0].ID)
		return a.Service.SubmitBatchSpan(jobs, sp)
	}
	a.mu.Lock()
	for a.next != idx {
		a.cond.Wait()
	}
	a.mu.Unlock()
	out := a.Service.SubmitBatchSpan(jobs, sp)
	a.mu.Lock()
	a.next++
	a.cond.Broadcast()
	a.mu.Unlock()
	return out
}

// TestNetBurstInterleavedWireOrder writes SUBMIT, SUBMIT-BATCH and
// SUBMIT frames interleaved in one write: the reader cuts a unit before
// each batch frame, the units reach each shard in wire order, every
// verdict matches the recorded stream and VerifyReplay holds.
func TestNetBurstInterleavedWireOrder(t *testing.T) {
	checkGoroutines(t)
	const shards, m = 2, 4
	const eps = 0.25
	svc, err := serve.New(shards, m, eps, serve.WithDecisionLog())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	inst := genInstance(t, 11, shards*m, eps, 3)
	// Units, in wire order: singles 0-1, batch 2-4, singles 5-6,
	// batch 7-9, single 10.
	units := [][2]int{{0, 2}, {2, 5}, {5, 7}, {7, 10}, {10, 11}}
	batch := map[int]bool{1: true, 3: true}
	adm := &orderedAdmitter{Service: svc, t: t, first: map[int]int{}}
	adm.cond = sync.NewCond(&adm.mu)
	for u, r := range units {
		adm.first[inst[r[0]].ID] = u
	}
	ln := newPipeListener()
	srv, err := ServeListener(adm, ln)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc, br := pipeHandshake(t, ln)
	defer nc.Close()

	var buf []byte
	for u, r := range units {
		if batch[u] {
			buf = appendSubmitBatch(buf, submitBatchFrame{ID: uint64(1000 + u), Jobs: inst[r[0]:r[1]]})
			continue
		}
		for i := r[0]; i < r[1]; i++ {
			buf = appendSubmit(buf, submitFrame{ID: uint64(i), Job: inst[i]})
		}
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	observed := map[int]online.Decision{}
	for len(observed) < len(inst) {
		payload, err := readFrame(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		if payload[0] == frameVerdictBatch {
			vb, err := decodeVerdictBatch(payload)
			if err != nil {
				t.Fatal(err)
			}
			r := units[vb.ID-1000]
			for k, v := range vb.Verdicts {
				j := inst[r[0]+k]
				dec, err := mapVerdict(j, verdictFrame{Status: v.Status, Machine: v.Machine, Start: v.Start})
				if err != nil {
					t.Fatal(err)
				}
				observed[j.ID] = dec
			}
			continue
		}
		v, err := decodeVerdict(payload)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := mapVerdict(inst[v.ID], v)
		if err != nil {
			t.Fatal(err)
		}
		observed[inst[v.ID].ID] = dec
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.VerifyReplay(); err != nil {
		t.Fatalf("interleaved stream diverged: %v", err)
	}
	checkObservedAgainstStreams(t, svc, shards, observed, len(inst))
	pos := map[int]int{}
	for i, j := range inst {
		pos[j.ID] = i
	}
	for s := 0; s < shards; s++ {
		last := -1
		for _, rec := range svc.ShardStream(s) {
			if p := pos[rec.Job.ID]; p < last {
				t.Fatalf("shard %d decided job at wire position %d after %d", s, p, last)
			} else {
				last = p
			}
		}
	}
}

// TestNetBurstSpans: a traced burst is one dispatch unit, yet every
// frame keeps its own span — its own JobID, decode, queue, decide and
// reply stages and its own verdict.
func TestNetBurstSpans(t *testing.T) {
	checkGoroutines(t)
	reg := obs.NewRegistry()
	rec := obs.NewSpanRecorder(reg, obs.WithSpanRing(64), obs.WithSlowLog(nil))
	svc, err := serve.New(2, 8, 0.5, serve.WithSpans(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	adm := &recordingAdmitter{Admitter: svc}
	ln := newPipeListener()
	srv, err := ServeListener(adm, ln, WithServerSpans(rec))
	if err != nil {
		t.Fatal(err)
	}
	nc, br := pipeHandshake(t, ln)
	defer nc.Close()

	const k = 6
	jobs := make([]job.Job, k)
	for i := range jobs {
		jobs[i] = testJob(200 + i)
	}
	if _, err := nc.Write(submitBurst(jobs)); err != nil {
		t.Fatal(err)
	}
	for range k {
		readVerdict(t, br)
	}
	// Close drains the writer, which finishes the spans after its flush.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if calls := adm.callIDs(); len(calls) != 1 {
		t.Fatalf("SubmitBatchSpan calls = %v, want one burst", calls)
	}
	spans := rec.Recent()
	if len(spans) != k {
		t.Fatalf("%d spans, want one per frame (%d)", len(spans), k)
	}
	ids := map[int64]bool{}
	for _, sp := range spans {
		ids[sp.JobID] = true
		for _, st := range []obs.Stage{obs.StageDecode, obs.StageQueue, obs.StageDecide, obs.StageReply} {
			if sp.Stages[st] <= 0 {
				t.Fatalf("span for job %d missing stage %s: %+v", sp.JobID, st, sp.Stages)
			}
		}
		if sp.Verdict != obs.VerdictAccept {
			t.Fatalf("span for job %d has verdict %q, want accept", sp.JobID, sp.Verdict)
		}
	}
	for _, j := range jobs {
		if !ids[int64(j.ID)] {
			t.Fatalf("no span for job %d (have %v)", j.ID, ids)
		}
	}
}
