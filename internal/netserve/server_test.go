package netserve

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"loadmax/internal/job"
	"loadmax/internal/obs"
	"loadmax/internal/serve"
)

// testJob returns a job with ample slack for the ε used in these tests.
func testJob(id int) job.Job {
	return job.Job{ID: id, Release: 0, Proc: 1, Deadline: 100}
}

func newTestService(t *testing.T, shards, m int, opts ...serve.Option) *serve.Service {
	t.Helper()
	svc, err := serve.New(shards, m, 0.5, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestNetShedUnderOverload holds the server at a known occupancy with
// the submit gate and proves queue-depth shedding is deterministic:
// with a global in-flight cap of 2 and six pipelined requests, exactly
// two are dispatched and exactly four come back SHED — and the four
// sheds are errors, never algorithmic rejections.
func TestNetShedUnderOverload(t *testing.T) {
	checkGoroutines(t)
	svc := newTestService(t, 1, 8)
	defer svc.Close()
	gate := make(chan struct{})
	reg := obs.NewRegistry()
	srv, err := Serve(svc, "127.0.0.1:0",
		WithMaxInflight(2), WithWindow(8),
		WithServerMetrics(reg), withSubmitGate(func() { <-gate }))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const requests = 6
	errs := make([]error, requests)
	var launched, done sync.WaitGroup
	for i := 0; i < requests; i++ {
		launched.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			launched.Done()
			_, errs[i] = cl.SubmitTimeout(testJob(i+1), 10*time.Second)
		}(i)
	}
	launched.Wait()
	// Wait until both dispatch slots are occupied and the other four
	// requests have been shed; the gate keeps the state frozen.
	deadline := time.Now().Add(10 * time.Second)
	for reg.Counter("netserve_shed_total").Value() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("sheds never arrived: %d", reg.Counter("netserve_shed_total").Value())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	done.Wait()

	var sheds, decided int
	for i, err := range errs {
		switch {
		case errors.Is(err, ErrShed):
			sheds++
		case err == nil:
			decided++
		default:
			t.Errorf("request %d: unexpected error %v", i, err)
		}
	}
	if sheds != 4 || decided != 2 {
		t.Fatalf("got %d sheds / %d decided, want 4/2", sheds, decided)
	}
	if v := reg.Counter("netserve_shed_total").Value(); v != 4 {
		t.Errorf("netserve_shed_total = %d, want 4", v)
	}
}

// TestNetTimeoutDistinctFromReject proves a per-call timeout surfaces as
// ErrTimeout — not as a rejection and not as a shed — and that the
// connection survives: the late verdict is discarded by request id and
// a fresh submission on the same connection still works.
func TestNetTimeoutDistinctFromReject(t *testing.T) {
	checkGoroutines(t)
	svc := newTestService(t, 1, 8)
	defer svc.Close()
	gate := make(chan struct{})
	srv, err := Serve(svc, "127.0.0.1:0", withSubmitGate(func() { <-gate }))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	_, err = cl.SubmitTimeout(testJob(1), 50*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("stalled submit returned %v, want ErrTimeout", err)
	}
	close(gate) // the late verdict arrives and must be dropped, not misrouted

	dec, err := cl.SubmitTimeout(testJob(2), 10*time.Second)
	if err != nil {
		t.Fatalf("submit after timeout: %v", err)
	}
	if dec.JobID != 2 || !dec.Accepted {
		t.Fatalf("post-timeout decision %+v, want accept of job 2", dec)
	}
}

// TestNetWindowShedRawFrames drives the wire directly (the Client
// self-limits, so only a raw peer can exceed its window): with window 2
// and five back-to-back submits, the first two dispatch and the next
// three are shed, deterministically.
func TestNetWindowShedRawFrames(t *testing.T) {
	checkGoroutines(t)
	svc := newTestService(t, 1, 8)
	defer svc.Close()
	gate := make(chan struct{})
	srv, err := Serve(svc, "127.0.0.1:0",
		WithWindow(2), WithMaxInflight(100), withSubmitGate(func() { <-gate }))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
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

	var burst []byte
	for i := 1; i <= 5; i++ {
		burst = appendSubmit(burst, submitFrame{ID: uint64(i), Job: testJob(i)})
	}
	if _, err := nc.Write(burst); err != nil {
		t.Fatal(err)
	}

	// The first three verdicts must be the sheds for ids 3, 4, 5 — the
	// reader sheds synchronously in frame order while ids 1 and 2 hold
	// the two window slots at the gate.
	for want := uint64(3); want <= 5; want++ {
		v := readVerdict(t, br)
		if v.Status != statusShed || v.ID != want {
			t.Fatalf("verdict %+v, want shed for id %d", v, want)
		}
	}
	close(gate)
	seen := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		v := readVerdict(t, br)
		if v.Status == statusShed {
			t.Fatalf("windowed request %d was shed", v.ID)
		}
		seen[v.ID] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("dispatched ids %v, want 1 and 2", seen)
	}
}

func readVerdict(t *testing.T, br *bufio.Reader) verdictFrame {
	t.Helper()
	payload, err := readFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := decodeVerdict(payload)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// pipeListener turns net.Pipe into a listener: every "accepted"
// connection is fully synchronous (a write blocks until the peer
// reads), which makes the slow-client path deterministic.
type pipeListener struct {
	conns chan net.Conn
	once  sync.Once
	done  chan struct{}
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr {
	return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0}
}

func (l *pipeListener) dial(t *testing.T) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	select {
	case l.conns <- server:
	case <-time.After(10 * time.Second):
		t.Fatal("server never accepted the pipe")
	}
	return client
}

// TestNetSlowClientDisconnected proves the slow-client guard: a client
// that stops reading after the handshake blocks the verdict write (the
// pipe is unbuffered), the write timeout fires, and the server cuts the
// connection instead of pinning a worker forever.
func TestNetSlowClientDisconnected(t *testing.T) {
	checkGoroutines(t)
	svc := newTestService(t, 1, 8)
	defer svc.Close()
	reg := obs.NewRegistry()
	ln := newPipeListener()
	srv, err := ServeListener(svc, ln,
		WithWriteTimeout(50*time.Millisecond), WithServerMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	nc := ln.dial(t)
	defer nc.Close()
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

	// Submit one job, then go silent: never read the verdict.
	if _, err := nc.Write(appendSubmit(nil, submitFrame{ID: 1, Job: testJob(1)})); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for reg.Counter("netserve_slow_disconnects_total").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow client was never disconnected")
		}
		time.Sleep(time.Millisecond)
	}
	if g := reg.Gauge("netserve_connections").Value(); g != 0 {
		// The connection teardown finishes asynchronously after the
		// counter increments; give it a moment before asserting.
		for g != 0 && !time.Now().After(deadline) {
			time.Sleep(time.Millisecond)
			g = reg.Gauge("netserve_connections").Value()
		}
		if g != 0 {
			t.Fatalf("netserve_connections = %v after disconnect, want 0", g)
		}
	}
}

// TestNetGracefulDrain closes the server mid-burst: every submission
// must end in a real verdict or a clean transport/timeout error — never
// a fabricated decision — and the underlying service must stay usable.
func TestNetGracefulDrain(t *testing.T) {
	checkGoroutines(t)
	svc := newTestService(t, 2, 8)
	defer svc.Close()
	srv, err := Serve(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.Addr().String(), WithConns(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const n = 400
	var wg sync.WaitGroup
	var mu sync.Mutex
	decided := 0
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 8 {
				dec, err := cl.SubmitTimeout(testJob(i+1), 5*time.Second)
				if err != nil {
					var te *TransportError
					if errors.As(err, &te) || errors.Is(err, ErrTimeout) || errors.Is(err, ErrClientClosed) {
						return // the drain cut us off cleanly
					}
					t.Errorf("submit %d: unexpected error %v", i, err)
					return
				}
				if dec.JobID != i+1 {
					t.Errorf("submit %d: verdict for job %d", i+1, dec.JobID)
					return
				}
				mu.Lock()
				decided++
				mu.Unlock()
			}
		}(w)
	}
	time.Sleep(10 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// Every verdict the clients saw is recorded in the service.
	var submitted int64
	for _, s := range svc.Snapshot() {
		submitted += s.Submitted
	}
	if int64(decided) > submitted {
		t.Fatalf("clients saw %d verdicts but the service decided only %d", decided, submitted)
	}
}
