package netserve

import (
	"io"
	"net"
	"testing"
	"time"
)

// TestHandshakeSlowLoris: a peer that connects and sends nothing (or
// trickles bytes) must be cut when the HELLO deadline expires instead
// of pinning a connection goroutine forever — and the server must keep
// serving real clients throughout.
func TestHandshakeSlowLoris(t *testing.T) {
	checkGoroutines(t)
	svc := newTestService(t, 1, 4)
	defer svc.Close()
	srv, err := Serve(svc, "127.0.0.1:0", WithHelloTimeout(150*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The loris: connect, say nothing.
	loris, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer loris.Close()

	// A real client handshakes and is served while the loris squats.
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("dial during slow loris: %v", err)
	}
	defer cl.Close()
	if _, err := cl.Submit(testJob(1)); err != nil {
		t.Fatalf("submit during slow loris: %v", err)
	}

	// The server cuts the silent peer once the deadline passes: the
	// loris's read returns EOF well before the default 10s would.
	loris.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	buf := make([]byte, 1)
	_, rerr := loris.Read(buf)
	if rerr == nil {
		t.Fatal("slow-loris connection produced bytes without a handshake")
	}
	if ne, ok := rerr.(net.Error); ok && ne.Timeout() {
		t.Fatal("slow-loris connection still open after the HELLO deadline")
	}
	if rerr != io.EOF {
		t.Logf("loris read error: %v (want EOF-like close)", rerr)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("loris cut after %v, want ~the 150ms HELLO deadline", elapsed)
	}
}

// TestHandshakeTimeoutOptionClamp: non-positive values keep the default
// rather than arming an already-expired deadline.
func TestHandshakeTimeoutOptionClamp(t *testing.T) {
	checkGoroutines(t)
	cfg := defaultServerConfig()
	WithHelloTimeout(0)(&cfg)
	if cfg.helloTimeout != 10*time.Second {
		t.Fatalf("helloTimeout = %v after WithHelloTimeout(0), want default", cfg.helloTimeout)
	}
	WithHelloTimeout(-time.Second)(&cfg)
	if cfg.helloTimeout != 10*time.Second {
		t.Fatalf("helloTimeout = %v after negative option, want default", cfg.helloTimeout)
	}
	WithHelloTimeout(time.Second)(&cfg)
	if cfg.helloTimeout != time.Second {
		t.Fatalf("helloTimeout = %v, want 1s", cfg.helloTimeout)
	}
}
