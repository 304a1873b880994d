package netserve

import (
	"sync"
	"testing"
	"time"

	"loadmax/internal/job"
	"loadmax/internal/obs"
	"loadmax/internal/online"
	"loadmax/internal/serve"
)

// TestNetSpanLifecycle is the end-to-end tracing proof: a fully traced
// networked run (server spans + serve spans sharing one recorder, client
// round-trip spans on another) still replays bit-identically, and every
// dispatched request's span carries the complete stage timeline —
// decode, queue wait, decide, reply write — with a verdict.
func TestNetSpanLifecycle(t *testing.T) {
	checkGoroutines(t)
	const shards, m = 2, 8
	const eps = 0.25
	reg := obs.NewRegistry()
	rec := obs.NewSpanRecorder(reg, obs.WithSpanRing(128), obs.WithSlowLog(nil),
		obs.WithSlowThreshold(time.Nanosecond)) // everything is "slow": exercises the slow ring under load
	svc, err := serve.New(shards, m, eps, serve.WithDecisionLog(), serve.WithSpans(rec))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(svc, "127.0.0.1:0", WithServerSpans(rec))
	if err != nil {
		t.Fatal(err)
	}

	clientReg := obs.NewRegistry()
	clientRec := obs.NewSpanRecorder(clientReg, obs.WithSlowLog(nil))
	inst := genInstance(t, 1500, shards*m, eps, 21)
	observed := driveClientsOpts(t, srv.Addr().String(), inst, 2, 3, WithClientSpans(clientRec))

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.VerifyReplay(); err != nil {
		t.Fatalf("traced networked stream diverged from sequential replay: %v", err)
	}
	if len(observed) != len(inst) {
		t.Fatalf("observed %d verdicts, want %d", len(observed), len(inst))
	}

	// No sheds configured away: every request got a span, finished once.
	if got := rec.Finished(); got != uint64(len(inst)) {
		t.Fatalf("finished server spans = %d, want %d", got, len(inst))
	}
	for _, sp := range rec.Recent() {
		for _, st := range []obs.Stage{obs.StageDecode, obs.StageQueue, obs.StageDecide, obs.StageReply} {
			if sp.Stages[st] <= 0 {
				t.Fatalf("span for job %d missing stage %s: %+v", sp.JobID, st, sp.Stages)
			}
		}
		if sp.Stages[obs.StageWAL] != 0 {
			t.Fatalf("non-durable service filled WAL stage: %+v", sp.Stages)
		}
		if sp.Verdict != obs.VerdictAccept && sp.Verdict != obs.VerdictReject {
			t.Fatalf("span for job %d has verdict %q", sp.JobID, sp.Verdict)
		}
	}
	if got := rec.SlowCount(); got != uint64(len(inst)) {
		t.Fatalf("slow count = %d, want every request past the 1ns threshold (%d)", got, len(inst))
	}
	if slows := rec.Slow(); len(slows) == 0 {
		t.Fatal("slow ring empty")
	}

	// Client-side: one round-trip observation per decided request.
	snap := clientReg.Snapshot()
	h := snap.Histograms[`span_stage_seconds{stage="client"}`]
	if h.Count != int64(len(inst)) {
		t.Fatalf("client stage observations = %d, want %d", h.Count, len(inst))
	}
}

// driveClientsOpts is driveClients with extra dial options.
func driveClientsOpts(t *testing.T, addr string, inst job.Instance, clients, pipeline int, opts ...DialOption) map[int]online.Decision {
	t.Helper()
	observed := make(map[int]online.Decision, len(inst))
	var mu sync.Mutex
	var wg sync.WaitGroup
	streams := clients * pipeline
	for c := 0; c < clients; c++ {
		cl, err := Dial(addr, append([]DialOption{WithConns(2)}, opts...)...)
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
		defer cl.Close()
		for p := 0; p < pipeline; p++ {
			wg.Add(1)
			go func(cl *Client, stream int) {
				defer wg.Done()
				for i := stream; i < len(inst); i += streams {
					dec, err := cl.SubmitTimeout(inst[i], 30*time.Second)
					if err != nil {
						t.Errorf("stream %d job %d: %v", stream, inst[i].ID, err)
						return
					}
					mu.Lock()
					observed[inst[i].ID] = dec
					mu.Unlock()
				}
			}(cl, c*pipeline+p)
		}
	}
	wg.Wait()
	return observed
}

// TestNetSpansOffUnchanged: without recorders nothing is captured and
// the path behaves exactly as before (guard against accidental
// always-on tracing).
func TestNetSpansOffUnchanged(t *testing.T) {
	checkGoroutines(t)
	svc, err := serve.New(1, 4, 0.25, serve.WithDecisionLog())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inst := genInstance(t, 300, 4, 0.25, 5)
	observed := driveClients(t, srv.Addr().String(), inst, 1, 2)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.VerifyReplay(); err != nil {
		t.Fatal(err)
	}
	if len(observed) != len(inst) {
		t.Fatalf("observed %d verdicts, want %d", len(observed), len(inst))
	}
}
