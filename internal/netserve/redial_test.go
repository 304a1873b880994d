package netserve

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loadmax/internal/job"
)

// bufioReaderHello consumes the client's HELLO and hands back the
// reader without acking — callers ack with whatever topology the test
// needs.
func bufioReaderHello(t *testing.T, nc net.Conn) *bufio.Reader {
	t.Helper()
	br := bufio.NewReader(nc)
	p, err := readFrame(br, nil)
	if err != nil || decodeHello(p) != nil {
		return nil
	}
	return br
}

// pipeDialer is an injected dialer over net.Pipe: every dial spins up a
// fresh echoServer end and records the server side so the test can kill
// connections one by one.
type pipeDialer struct {
	t    *testing.T
	mu   sync.Mutex
	srvs []net.Conn
	fail atomic.Bool // when set, every dial errors
}

func (d *pipeDialer) dial() (net.Conn, error) {
	if d.fail.Load() {
		return nil, errors.New("injected dial failure")
	}
	cli, srv := net.Pipe()
	go echoServer(d.t, srv, 8)
	d.mu.Lock()
	d.srvs = append(d.srvs, srv)
	d.mu.Unlock()
	return cli, nil
}

func (d *pipeDialer) kill(i int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.srvs[i].Close()
}

func (d *pipeDialer) dials() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.srvs)
}

// TestRedialRecoversKilledConn is the kill-and-redial regression test:
// before this path existed, a pooled connection that died stayed dead
// forever — a client whose only connection broke was bricked until the
// caller rebuilt it. Kill the sole connection mid-stream and prove the
// background monitor redials it and submissions succeed again on the
// same Client.
func TestRedialRecoversKilledConn(t *testing.T) {
	d := &pipeDialer{t: t}
	c, err := Dial("pipe", WithDialer(d.dial),
		WithRedial(8, time.Millisecond, 20*time.Millisecond),
		WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	j := job.Job{ID: 1, Release: 0, Proc: 1, Deadline: 10}
	if _, err := c.Submit(j); err != nil {
		t.Fatalf("warm-up submit: %v", err)
	}

	d.kill(0) // the only pooled connection dies mid-stream

	// The monitor redials in the background; within the backoff budget a
	// submission must succeed again — on a freshly dialed connection.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := c.Submit(j); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered after kill: redial path broken")
		}
		time.Sleep(time.Millisecond)
	}
	if d.dials() < 2 {
		t.Fatalf("submissions recovered without a redial (%d dials)", d.dials())
	}
}

// TestRedialBudgetBackendDown: when the backend is gone for good, the
// bounded backoff budget runs out and the client reports the typed
// ErrBackendDown (wrapped in a *TransportError) instead of retrying
// forever or hanging.
func TestRedialBudgetBackendDown(t *testing.T) {
	d := &pipeDialer{t: t}
	c, err := Dial("pipe", WithDialer(d.dial),
		WithRedial(2, time.Millisecond, 2*time.Millisecond),
		WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	j := job.Job{ID: 1, Release: 0, Proc: 1, Deadline: 10}
	if _, err := c.Submit(j); err != nil {
		t.Fatalf("warm-up submit: %v", err)
	}

	d.fail.Store(true) // backend is gone: every redial attempt fails
	d.kill(0)

	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := c.Submit(j)
		if errors.Is(err, ErrBackendDown) {
			var te *TransportError
			if !errors.As(err, &te) {
				t.Fatalf("ErrBackendDown not wrapped in *TransportError: %v", err)
			}
			break
		}
		if err == nil {
			t.Fatal("submit succeeded with the backend gone")
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw ErrBackendDown after budget; last err: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRedialRejectsChangedTopology: a backend that comes back with a
// different topology is a different backend; the redial must not
// silently adopt it. With every "recovered" handshake mismatched, the
// slot burns its budget and goes down.
func TestRedialRejectsChangedTopology(t *testing.T) {
	var restarted atomic.Bool
	var mu sync.Mutex
	var srvs []net.Conn
	dialer := func() (net.Conn, error) {
		cli, srv := net.Pipe()
		if restarted.Load() {
			// The "restarted" backend advertises 2 machines instead of 1:
			// a handshake the redial must refuse.
			go func() {
				br := bufioReaderHello(t, srv)
				if br == nil {
					return
				}
				ack := helloAck{Version: ProtocolVersion, Window: 8, Shards: 1, Machines: 2, Eps: 0.5}
				srv.Write(appendHelloAck(nil, ack)) //nolint:errcheck // test peer
			}()
		} else {
			go echoServer(t, srv, 8)
		}
		mu.Lock()
		srvs = append(srvs, srv)
		mu.Unlock()
		return cli, nil
	}
	c, err := Dial("pipe", WithDialer(dialer),
		WithRedial(2, time.Millisecond, 2*time.Millisecond),
		WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	restarted.Store(true)
	mu.Lock()
	srvs[0].Close()
	mu.Unlock()

	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := c.Submit(job.Job{ID: 1, Proc: 1, Deadline: 10})
		if errors.Is(err, ErrBackendDown) {
			break
		}
		if err == nil {
			t.Fatal("submit succeeded against a topology-changed backend")
		}
		if time.Now().After(deadline) {
			t.Fatalf("mismatched redial not rejected; last err: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}
