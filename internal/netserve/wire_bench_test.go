package netserve

import (
	"bufio"
	"bytes"
	"path/filepath"
	"sync"
	"testing"

	"loadmax/internal/job"
	"loadmax/internal/obs"
	"loadmax/internal/serve"
	"loadmax/internal/workload"
)

// TestPooledFrameEncodeZeroAllocs is the hot-path guard for the pooled
// frame scratch: encoding a verdict, a submit, or a whole batch into a
// pooled buffer must not allocate once the pool is warm. These paths
// run once per request (server reply, client send), so a single alloc
// here is a per-request alloc under load.
func TestPooledFrameEncodeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops items under -race; alloc counts are not meaningful")
	}
	// Warm the pool so the measured runs only ever recycle.
	getFrameBuf().release()

	if n := testing.AllocsPerRun(1000, func() {
		fb := getFrameBuf()
		fb.b = appendVerdict(fb.b, verdictFrame{ID: 7, Status: statusAccept, Machine: 3, Start: 1.5})
		fb.release()
	}); n != 0 {
		t.Fatalf("pooled verdict encode allocates %.1f allocs/op, want 0", n)
	}

	if n := testing.AllocsPerRun(1000, func() {
		fb := getFrameBuf()
		fb.b = appendSubmit(fb.b, submitFrame{ID: 9, Job: job.Job{ID: 1, Release: 0, Proc: 2, Deadline: 10}})
		fb.release()
	}); n != 0 {
		t.Fatalf("pooled submit encode allocates %.1f allocs/op, want 0", n)
	}

	jobs := make([]job.Job, 64)
	for i := range jobs {
		jobs[i] = job.Job{ID: i, Proc: 1, Deadline: 100}
	}
	if n := testing.AllocsPerRun(200, func() {
		fb := getFrameBuf()
		fb.b = appendSubmitBatch(fb.b, submitBatchFrame{ID: 1, Jobs: jobs})
		fb.release()
	}); n != 0 {
		t.Fatalf("pooled submit-batch encode allocates %.1f allocs/op, want 0", n)
	}

	verdicts := make([]batchVerdict, 64)
	for i := range verdicts {
		verdicts[i] = batchVerdict{Status: statusAccept, Machine: int64(i), Start: float64(i)}
	}
	if n := testing.AllocsPerRun(200, func() {
		fb := getFrameBuf()
		fb.b = appendVerdictBatch(fb.b, verdictBatchFrame{ID: 1, Verdicts: verdicts})
		fb.release()
	}); n != 0 {
		t.Fatalf("pooled verdict-batch encode allocates %.1f allocs/op, want 0", n)
	}
}

// TestPooledVerdictDecodeZeroAllocs guards the client's read-loop batch
// decode: with a pooled scratch slice and no error messages (the happy
// path — Msg is only set for statusError), decode must not allocate.
func TestPooledVerdictDecodeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops items under -race; alloc counts are not meaningful")
	}
	verdicts := make([]batchVerdict, 64)
	for i := range verdicts {
		verdicts[i] = batchVerdict{Status: statusReject}
	}
	frame := appendVerdictBatch(nil, verdictBatchFrame{ID: 5, Verdicts: verdicts})
	payload := frame[wireHeaderLen:]
	putVerdicts(getVerdicts()) // warm the pool

	if n := testing.AllocsPerRun(500, func() {
		vb, err := decodeVerdictBatchInto(payload, getVerdicts())
		if err != nil {
			t.Fatal(err)
		}
		putVerdicts(vb.Verdicts)
	}); n != 0 {
		t.Fatalf("pooled verdict-batch decode allocates %.1f allocs/op, want 0", n)
	}
}

// TestDecodeVerdictBatchIntoReuse pins the scratch-reuse contract: with
// capacity, the returned verdicts alias the scratch; without, a fresh
// slice is allocated and the result is still correct.
func TestDecodeVerdictBatchIntoReuse(t *testing.T) {
	in := verdictBatchFrame{ID: 3, Verdicts: []batchVerdict{
		{Status: statusAccept, Machine: 1, Start: 2.5},
		{Status: statusError, Msg: "boom"},
	}}
	frame := appendVerdictBatch(nil, in)
	payload := frame[wireHeaderLen:]

	scratch := make([]batchVerdict, 0, 8)
	vb, err := decodeVerdictBatchInto(payload, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if &vb.Verdicts[0] != &scratch[:1][0] {
		t.Fatal("decode with sufficient scratch should reuse it")
	}
	if vb.ID != 3 || len(vb.Verdicts) != 2 || vb.Verdicts[1].Msg != "boom" {
		t.Fatalf("scratch decode corrupted frame: %+v", vb)
	}

	vb2, err := decodeVerdictBatchInto(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vb2.ID != vb.ID || len(vb2.Verdicts) != len(vb.Verdicts) || vb2.Verdicts[0] != vb.Verdicts[0] {
		t.Fatal("nil-scratch decode should match scratch decode")
	}
}

// BenchmarkVerdictEncodePooled measures the server's reply encode with
// the pooled scratch (the production path).
func BenchmarkVerdictEncodePooled(b *testing.B) {
	v := verdictFrame{ID: 42, Status: statusAccept, Machine: 7, Start: 123.456}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fb := getFrameBuf()
		fb.b = appendVerdict(fb.b, v)
		fb.release()
	}
}

// BenchmarkVerdictEncodeFresh is the pre-pool baseline: a fresh
// destination slice per frame.
func BenchmarkVerdictEncodeFresh(b *testing.B) {
	v := verdictFrame{ID: 42, Status: statusAccept, Machine: 7, Start: 123.456}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = appendVerdict(nil, v)
	}
}

// TestReadFrameZeroAllocs guards the read loops: with a connection's
// payload scratch warm, reading a SUBMIT frame (the server's hot read)
// and a VERDICT frame (the client's) and decoding them must not
// allocate — readFrame reuses the scratch instead of making a payload
// per frame.
func TestReadFrameZeroAllocs(t *testing.T) {
	var wire []byte
	wire = appendSubmit(wire, submitFrame{ID: 9, Job: job.Job{ID: 1, Proc: 2, Deadline: 10}})
	wire = appendVerdict(wire, verdictFrame{ID: 9, Status: statusAccept, Machine: 3, Start: 1.5})
	rd := bytes.NewReader(wire)
	br := bufio.NewReader(rd)
	var scratch []byte
	read := func() {
		rd.Reset(wire)
		br.Reset(rd)
		p, err := readFrame(br, scratch)
		if err != nil {
			t.Fatal(err)
		}
		scratch = p[:0]
		if _, err := decodeSubmit(p); err != nil {
			t.Fatal(err)
		}
		if p, err = readFrame(br, scratch); err != nil {
			t.Fatal(err)
		}
		if _, err := decodeVerdict(p); err != nil {
			t.Fatal(err)
		}
	}
	read() // size the scratch
	if n := testing.AllocsPerRun(1000, read); n != 0 {
		t.Fatalf("reading a submit and a verdict frame allocates %.1f allocs/op, want 0", n)
	}
}

// BenchmarkLoopbackDurableSubmit is the per-job wire rung on its own: a
// durable 4×64 Threshold service behind a server on a loopback port,
// one client connection, and one closed-loop caller per shard, each
// submitting its own release-ordered stream with Client.Submit. Besides
// ns/op (one op = one job), it reports how well the server coalesces:
// frames/unit (SUBMIT frames per dispatch unit, from
// netserve_rx_frames_total over netserve_request_seconds' count) and
// frames/flush (verdict frames per writer flush, over
// netserve_tx_flushes_total).
func BenchmarkLoopbackDurableSubmit(b *testing.B) {
	const shards, m, eps, callers = 4, 64, 0.1, 4
	svc, err := serve.New(shards, m, eps, serve.WithDurability(filepath.Join(b.TempDir(), "wal")))
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	reg := obs.NewRegistry()
	srv, err := Serve(svc, "127.0.0.1:0", WithServerMetrics(reg))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	fam, _ := workload.ByName("poisson")
	inst := fam.Gen(workload.Spec{N: max(b.N, callers), Eps: eps, M: shards * m, Load: 2.0, Seed: 1})

	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < b.N; i += callers {
				if _, err := cl.Submit(inst[i]); err != nil {
					b.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	frames := float64(reg.Counter("netserve_rx_frames_total").Value())
	b.ReportMetric(frames/float64(reg.Histogram("netserve_request_seconds", nil).Count()), "frames/unit")
	b.ReportMetric(frames/float64(reg.Counter("netserve_tx_flushes_total").Value()), "frames/flush")
}
