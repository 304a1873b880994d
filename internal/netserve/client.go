package netserve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"loadmax/internal/job"
	"loadmax/internal/obs"
	"loadmax/internal/online"
)

// Typed client errors. Algorithmic rejection is NOT an error: a job the
// scheduler turned down returns (Decision{Accepted: false}, nil). Errors
// mean the question never got an algorithmic answer.
var (
	// ErrShed reports that the server refused the request under
	// overload (global in-flight cap, connection window, or shard-queue
	// backpressure). Nothing was committed; the caller may retry.
	ErrShed = errors.New("netserve: request shed (server overloaded)")
	// ErrTimeout reports that the per-call timeout expired before a
	// verdict arrived. The request may still be decided server-side —
	// the caller must treat the outcome as unknown, exactly as with any
	// RPC timeout.
	ErrTimeout = errors.New("netserve: request timed out awaiting verdict")
	// ErrClientClosed reports a Submit after Close.
	ErrClientClosed = errors.New("netserve: client closed")
	// ErrBackendDown reports that every pooled connection is dead AND
	// the redial budget is exhausted: the backend is gone as far as this
	// client can tell, and no submission will ever succeed again on it.
	// It is wrapped in a *TransportError; test with errors.Is. Distinct
	// from the transient "all connections down, redialing" state, which
	// is a plain *TransportError and may heal.
	ErrBackendDown = errors.New("netserve: backend down (redial budget exhausted)")
)

// RemoteError is a server-side failure relayed over the wire (service
// closed, WAL poisoned). The request was not decided.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "netserve: server error: " + e.Msg }

// TransportError is a network-layer failure: the connection died (or
// could not be established) and the verdict, if any, was lost.
type TransportError struct {
	Op  string
	Err error
}

func (e *TransportError) Error() string { return "netserve: " + e.Op + ": " + e.Err.Error() }
func (e *TransportError) Unwrap() error { return e.Err }

// DialOption configures a Client.
type DialOption func(*dialConfig)

type dialConfig struct {
	conns        int
	timeout      time.Duration
	dialTimeout  time.Duration
	spans        *obs.SpanRecorder
	dialer       func() (net.Conn, error)
	redialBudget int
	redialBase   time.Duration
	redialMax    time.Duration
}

func defaultDialConfig() dialConfig {
	return dialConfig{
		conns:        1,
		timeout:      30 * time.Second,
		dialTimeout:  10 * time.Second,
		redialBudget: 6,
		redialBase:   25 * time.Millisecond,
		redialMax:    2 * time.Second,
	}
}

// WithConns sets the connection-pool size (default 1). Submissions are
// spread round-robin; each connection multiplexes up to the server's
// advertised window of concurrent requests.
func WithConns(n int) DialOption { return func(c *dialConfig) { c.conns = n } }

// WithTimeout sets the default per-call verdict timeout (default 30s);
// SubmitTimeout overrides it per call.
func WithTimeout(d time.Duration) DialOption { return func(c *dialConfig) { c.timeout = d } }

// WithDialTimeout bounds connection establishment and the handshake
// (default 10s).
func WithDialTimeout(d time.Duration) DialOption { return func(c *dialConfig) { c.dialTimeout = d } }

// WithDialer replaces the TCP dialer (default: DialTimeout to the Dial
// addr). Both the initial pool and every redial go through it, which is
// how tests drive the reconnect path deterministically over net.Pipe
// and how in-process backends are reached without a real socket.
func WithDialer(d func() (net.Conn, error)) DialOption {
	return func(c *dialConfig) { c.dialer = d }
}

// WithRedial tunes the reconnect path: a pooled connection that dies is
// redialed in the background with exponential backoff, up to budget
// dial attempts per outage starting at base and capped at max (default
// 6 attempts, 25ms..2s). A successful redial resets the budget; once it
// is spent the slot is down for good and — with every slot down —
// submissions fail with ErrBackendDown. budget = 0 disables redial,
// restoring the conn-stays-dead behavior (used by health probes, which
// want the first failure reported, not retried).
func WithRedial(budget int, base, max time.Duration) DialOption {
	return func(c *dialConfig) {
		c.redialBudget = budget
		c.redialBase = base
		c.redialMax = max
	}
}

// WithClientSpans attaches a span recorder: every decided Submit's
// send→verdict round trip is observed into the recorder's "client"
// stage histogram. This is the client's own clock — it measures what
// callers experience, including the network, and is never merged with
// server-side spans.
func WithClientSpans(rec *obs.SpanRecorder) DialOption {
	return func(c *dialConfig) { c.spans = rec }
}

// Client is a pooled, pipelining connection to a loadmax daemon. It is
// safe for concurrent use: requests are multiplexed over each
// connection by request id, so many goroutines can have submissions in
// flight at once (that is where the throughput comes from — one
// round-trip per request, but many overlapping rounds). For raw
// throughput, SubmitBatch moves many jobs per round trip instead:
// singles and batches pipeline freely on the same connections.
type Client struct {
	cfg   dialConfig
	slots []*connSlot
	rr    atomic.Uint64

	mu     sync.Mutex
	closed bool

	closeCh chan struct{} // closed by Close; stops the slot monitors

	ack helloAck // topology from the first connection's handshake
}

// connSlot is one position in the connection pool. The current
// connection is behind an atomic pointer because the slot's monitor
// goroutine swaps in a fresh connection after a successful redial while
// submitters read it lock-free.
type connSlot struct {
	cur  atomic.Pointer[clientConn]
	down atomic.Bool // redial budget exhausted: this slot will never heal
}

// Dial connects to a loadmax daemon at addr and performs the protocol
// handshake on every pooled connection.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	cfg := defaultDialConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.conns < 1 {
		cfg.conns = 1
	}
	if cfg.dialer == nil {
		dt := cfg.dialTimeout
		cfg.dialer = func() (net.Conn, error) { return net.DialTimeout("tcp", addr, dt) }
	}
	c := &Client{cfg: cfg, closeCh: make(chan struct{})}
	for i := 0; i < cfg.conns; i++ {
		nc, err := cfg.dialer()
		if err != nil {
			c.Close()
			return nil, &TransportError{Op: "dial " + addr, Err: err}
		}
		cc, ack, err := setupConn(nc, cfg)
		if err != nil {
			c.Close()
			return nil, err
		}
		sl := &connSlot{}
		sl.cur.Store(cc)
		c.slots = append(c.slots, sl)
		c.ack = ack
	}
	for _, sl := range c.slots {
		go c.watch(sl)
	}
	return c, nil
}

// newClientWith assembles a client over pre-established connections —
// the test seam for net.Pipe-backed pools. Monitors run exactly as in
// Dial; with no dialer configured, a dead slot goes straight to down.
func newClientWith(cfg dialConfig, ack helloAck, ccs ...*clientConn) *Client {
	c := &Client{cfg: cfg, ack: ack, closeCh: make(chan struct{})}
	for _, cc := range ccs {
		sl := &connSlot{}
		sl.cur.Store(cc)
		c.slots = append(c.slots, sl)
	}
	for _, sl := range c.slots {
		go c.watch(sl)
	}
	return c
}

// watch is slot sl's reconnect monitor: it blocks until the slot's
// connection dies, runs the redial loop, and either re-arms on the
// fresh connection or marks the slot down for good when the budget is
// spent. One goroutine per slot, started at Dial, stopped by Close.
func (c *Client) watch(sl *connSlot) {
	for {
		cc := sl.cur.Load()
		select {
		case <-cc.dead:
		case <-c.closeCh:
			return
		}
		if !c.redial(sl) {
			sl.down.Store(true)
			return
		}
	}
}

// redial tries to re-establish sl's connection: up to redialBudget dial
// attempts with exponential backoff. A redialed connection must
// advertise the same topology and policy as the original handshake — a
// backend that came back *different* is a different backend, and
// silently switching to it would corrupt the caller's view of the
// decision stream, so a mismatched ack counts as a failed attempt.
// Returns false when the budget is spent (or redial is disabled).
func (c *Client) redial(sl *connSlot) bool {
	if c.cfg.dialer == nil || c.cfg.redialBudget <= 0 {
		return false
	}
	backoff := c.cfg.redialBase
	for attempt := 0; attempt < c.cfg.redialBudget; attempt++ {
		nc, err := c.cfg.dialer()
		if err == nil {
			cc, ack, serr := setupConn(nc, c.cfg)
			if serr == nil && !sameTopology(ack, c.ack) {
				cc.close()
				serr = errors.New("redialed backend advertises a different topology")
			}
			if serr == nil {
				// Publish under the client mutex so a concurrent Close
				// cannot miss the fresh connection and leak it.
				c.mu.Lock()
				if c.closed {
					c.mu.Unlock()
					cc.close()
					return false
				}
				sl.cur.Store(cc)
				c.mu.Unlock()
				return true
			}
		}
		select {
		case <-time.After(backoff):
		case <-c.closeCh:
			return false
		}
		backoff *= 2
		if backoff > c.cfg.redialMax {
			backoff = c.cfg.redialMax
		}
	}
	return false
}

// sameTopology reports whether a redialed handshake matches the
// original: same serving shape, same admission policy. Window may
// differ (the new connection self-limits to its own ack).
func sameTopology(a, b helloAck) bool {
	return a.Shards == b.Shards && a.Machines == b.Machines && a.Eps == b.Eps && a.Policy == b.Policy
}

// Shards returns the serving topology's shard count, learned in the
// handshake.
func (c *Client) Shards() int { return int(c.ack.Shards) }

// Machines returns the machines per shard, learned in the handshake.
func (c *Client) Machines() int { return int(c.ack.Machines) }

// Eps returns the slack ε the service runs with, learned in the
// handshake.
func (c *Client) Eps() float64 { return c.ack.Eps }

// Window returns the per-connection in-flight window the server
// enforces; the client self-limits to it.
func (c *Client) Window() int { return int(c.ack.Window) }

// Policy returns the canonical admission-policy spec the server runs,
// learned in the handshake — what `loadmaxd -policy` was started with.
func (c *Client) Policy() string { return c.ack.Policy }

// Submit sends the job and blocks until its verdict arrives (or the
// default timeout expires). See SubmitTimeout for the error contract.
func (c *Client) Submit(j job.Job) (online.Decision, error) {
	return c.SubmitTimeout(j, c.cfg.timeout)
}

// SubmitTimeout sends the job with a per-call verdict deadline.
//
//	accepted   → (Decision{Accepted: true, Machine, Start}, nil)
//	rejected   → (Decision{Accepted: false}, nil)     // algorithmic, final
//	overload   → ErrShed                              // retryable, never submitted
//	timeout    → ErrTimeout                           // outcome unknown
//	server err → *RemoteError
//	conn err   → *TransportError
func (c *Client) SubmitTimeout(j job.Job, timeout time.Duration) (online.Decision, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return online.Decision{}, ErrClientClosed
	}
	c.mu.Unlock()

	cc, pickErr := c.pick()
	if cc == nil {
		return online.Decision{}, pickErr
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()

	// Respect the server's window so a conforming client is never shed
	// for exceeding it: acquire a slot or time out waiting for one.
	select {
	case cc.sem <- struct{}{}:
	case <-timer.C:
		return online.Decision{}, ErrTimeout
	case <-cc.dead:
		return online.Decision{}, cc.transportErr()
	}
	defer func() { <-cc.sem }()

	sendNs := c.cfg.spans.Now()
	id, ch := cc.register()
	// Pooled encode scratch: send flushes through the buffered writer
	// before returning, so the buffer is reusable the moment it does.
	fb := getFrameBuf()
	fb.b = appendSubmit(fb.b, submitFrame{ID: id, Job: j})
	err := cc.send(fb.b)
	fb.release()
	if err != nil {
		cc.unregister(id)
		return online.Decision{}, err
	}
	select {
	case v := <-ch:
		c.cfg.spans.Observe(obs.StageClient, c.cfg.spans.Now()-sendNs)
		return mapVerdict(j, v)
	case <-timer.C:
		// Losing the select race must not fabricate a timeout: when the
		// verdict and the timer are both ready, Go's select may pick the
		// timer even though the verdict was delivered. Unregister first —
		// if the id was already claimed, the read loop's send into the
		// 1-buffered channel is committed (nothing can intercept it), so
		// collect the real verdict instead of reporting "outcome unknown".
		if !cc.unregister(id) {
			v := <-ch
			c.cfg.spans.Observe(obs.StageClient, c.cfg.spans.Now()-sendNs)
			return mapVerdict(j, v)
		}
		return online.Decision{}, ErrTimeout
	case <-cc.dead:
		// Same recheck on connection death: a verdict that was routed
		// before the connection died is an answer the caller should get.
		if !cc.unregister(id) {
			v := <-ch
			c.cfg.spans.Observe(obs.StageClient, c.cfg.spans.Now()-sendNs)
			return mapVerdict(j, v)
		}
		return online.Decision{}, cc.transportErr()
	}
}

// BatchResult is one job's outcome from SubmitBatch, under the same
// contract as SubmitTimeout: algorithmic rejection is a Decision with
// Accepted=false and a nil Err; Err (ErrShed, *RemoteError) means job i
// never got an algorithmic answer.
type BatchResult struct {
	Dec online.Decision
	Err error
}

// SubmitBatch submits many jobs in one wire frame (per chunk of
// MaxBatchJobs) and blocks until the grouped verdict arrives, using the
// default timeout. See SubmitBatchTimeout.
func (c *Client) SubmitBatch(jobs []job.Job) ([]BatchResult, error) {
	return c.SubmitBatchTimeout(jobs, c.cfg.timeout)
}

// SubmitBatchTimeout sends the jobs as submit-batch frames — one
// length-prefix, one CRC, one window slot, and (server-side) one shard
// handoff per sub-batch and one fsync per batch — and returns per-job
// results aligned with jobs. Batching is transport-only: the server
// decides the jobs one at a time in batch order, so the results are
// bit-identical to submitting the jobs individually in that order.
//
// The whole call shares one timeout. All chunks travel on one pooled
// connection, in order, so the server decides the batch in submission
// order. A non-nil error (ErrTimeout, ErrClientClosed,
// *TransportError) means the call failed as a whole and no results are
// returned; per-job outcomes — including ErrShed for a shed batch —
// come back in the BatchResults.
func (c *Client) SubmitBatchTimeout(jobs []job.Job, timeout time.Duration) ([]BatchResult, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	c.mu.Unlock()
	if len(jobs) == 0 {
		return nil, nil
	}
	cc, pickErr := c.pick()
	if cc == nil {
		return nil, pickErr
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	out := make([]BatchResult, 0, len(jobs))
	for off := 0; off < len(jobs); off += MaxBatchJobs {
		chunk := jobs[off:min(off+MaxBatchJobs, len(jobs))]
		res, err := c.submitChunk(cc, chunk, timer)
		if err != nil {
			return nil, err
		}
		out = append(out, res...)
	}
	return out, nil
}

// submitChunk sends one submit-batch frame and awaits its verdict
// batch. Like the server, the client counts a batch frame as ONE
// window slot.
func (c *Client) submitChunk(cc *clientConn, chunk []job.Job, timer *time.Timer) ([]BatchResult, error) {
	select {
	case cc.sem <- struct{}{}:
	case <-timer.C:
		return nil, ErrTimeout
	case <-cc.dead:
		return nil, cc.transportErr()
	}
	defer func() { <-cc.sem }()

	sendNs := c.cfg.spans.Now()
	id, ch := cc.registerBatch()
	fb := getFrameBuf()
	fb.b = appendSubmitBatch(fb.b, submitBatchFrame{ID: id, Jobs: chunk})
	err := cc.send(fb.b)
	fb.release()
	if err != nil {
		cc.unregisterBatch(id)
		return nil, err
	}
	var vb verdictBatchFrame
	select {
	case vb = <-ch:
	case <-timer.C:
		// Same delivered-verdict recheck as SubmitTimeout.
		if cc.unregisterBatch(id) {
			return nil, ErrTimeout
		}
		vb = <-ch
	case <-cc.dead:
		if cc.unregisterBatch(id) {
			return nil, cc.transportErr()
		}
		vb = <-ch
	}
	c.cfg.spans.Observe(obs.StageClient, c.cfg.spans.Now()-sendNs)
	if len(vb.Verdicts) != len(chunk) {
		putVerdicts(vb.Verdicts)
		return nil, &TransportError{Op: "verdict-batch", Err: fmt.Errorf("%d verdicts for %d jobs", len(vb.Verdicts), len(chunk))}
	}
	out := make([]BatchResult, len(chunk))
	for i, v := range vb.Verdicts {
		dec, err := mapVerdict(chunk[i], verdictFrame{Status: v.Status, Machine: v.Machine, Start: v.Start, Msg: v.Msg})
		out[i] = BatchResult{Dec: dec, Err: err}
	}
	// The verdict slice came from the read loop's pool; everything the
	// caller needs is copied into out, so it goes back now.
	putVerdicts(vb.Verdicts)
	return out, nil
}

// mapVerdict translates a wire verdict into the client contract.
func mapVerdict(j job.Job, v verdictFrame) (online.Decision, error) {
	switch v.Status {
	case statusAccept:
		return online.Decision{JobID: j.ID, Accepted: true, Machine: int(v.Machine), Start: v.Start}, nil
	case statusReject:
		return online.Decision{JobID: j.ID}, nil
	case statusShed:
		return online.Decision{}, ErrShed
	case statusError:
		return online.Decision{}, &RemoteError{Msg: v.Msg}
	default:
		return online.Decision{}, &TransportError{Op: "verdict", Err: fmt.Errorf("unknown status %d", v.Status)}
	}
}

// pick chooses a live connection round-robin; a dead connection is
// skipped so the pool degrades instead of failing while any peer
// lives. With every slot dead the error distinguishes the transient
// state (monitors still redialing — a later submission may succeed)
// from the terminal one (every budget spent — ErrBackendDown).
func (c *Client) pick() (*clientConn, error) {
	n := len(c.slots)
	if n == 0 {
		// A half-constructed client (Dial failed partway and the caller
		// kept the value anyway) must fail fast, not divide by zero.
		return nil, &TransportError{Op: "submit", Err: errors.New("no live connections")}
	}
	// Reduce the counter in uint64 space BEFORE converting: a plain
	// int(c.rr.Add(1)) goes negative once the counter passes the int
	// range (always possible on 32-bit platforms, and after wraparound
	// anywhere), and a negative start makes (start+i)%n a negative
	// index — a panic, not a skipped connection.
	start := int(c.rr.Add(1) % uint64(n))
	for i := 0; i < n; i++ {
		if cc := c.slots[(start+i)%n].cur.Load(); cc != nil && !cc.isDead() {
			return cc, nil
		}
	}
	for _, sl := range c.slots {
		if !sl.down.Load() {
			return nil, &TransportError{Op: "submit", Err: errors.New("all connections down, redialing")}
		}
	}
	return nil, &TransportError{Op: "submit", Err: ErrBackendDown}
}

// Close tears down every pooled connection and stops the reconnect
// monitors. In-flight submissions return a *TransportError.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	if c.closeCh != nil {
		close(c.closeCh)
	}
	var first error
	for _, sl := range c.slots {
		cc := sl.cur.Load()
		if cc == nil {
			continue
		}
		if err := cc.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// clientConn is one multiplexed connection: a single reader goroutine
// routes verdict frames to waiting callers by request id.
type clientConn struct {
	nc  net.Conn
	sem chan struct{} // server-window slots

	wmu sync.Mutex
	bw  *bufio.Writer

	pmu          sync.Mutex
	pending      map[uint64]chan verdictFrame
	batchPending map[uint64]chan verdictBatchFrame
	nextID       uint64
	err          error // sticky transport error

	dead     chan struct{}
	deadOnce sync.Once
}

// setupConn performs the protocol handshake on an established
// connection and starts its read loop. A SetDeadline failure is a
// *TransportError, not something to shrug off: proceeding without the
// deadline would let a silent peer pin the handshake forever.
func setupConn(nc net.Conn, cfg dialConfig) (*clientConn, helloAck, error) {
	if err := nc.SetDeadline(time.Now().Add(cfg.dialTimeout)); err != nil {
		nc.Close()
		return nil, helloAck{}, &TransportError{Op: "handshake deadline", Err: err}
	}
	if _, err := nc.Write(appendHello(nil)); err != nil {
		nc.Close()
		return nil, helloAck{}, &TransportError{Op: "handshake", Err: err}
	}
	br := bufio.NewReaderSize(nc, 32<<10)
	payload, err := readFrame(br, nil)
	if err != nil {
		nc.Close()
		return nil, helloAck{}, &TransportError{Op: "handshake", Err: err}
	}
	ack, err := decodeHelloAck(payload)
	if err != nil {
		nc.Close()
		return nil, helloAck{}, err
	}
	if err := nc.SetDeadline(time.Time{}); err != nil {
		// Failing to CLEAR the deadline matters just as much: every
		// later read on this connection would spuriously time out.
		nc.Close()
		return nil, helloAck{}, &TransportError{Op: "handshake deadline", Err: err}
	}
	window := int(ack.Window)
	if window < 1 {
		window = 1
	}
	cc := &clientConn{
		nc:           nc,
		sem:          make(chan struct{}, window),
		bw:           bufio.NewWriterSize(nc, 32<<10),
		pending:      make(map[uint64]chan verdictFrame),
		batchPending: make(map[uint64]chan verdictBatchFrame),
		dead:         make(chan struct{}),
	}
	go cc.readLoop(br)
	return cc, ack, nil
}

// register allocates a request id and its 1-buffered reply channel.
func (cc *clientConn) register() (uint64, chan verdictFrame) {
	ch := make(chan verdictFrame, 1)
	cc.pmu.Lock()
	cc.nextID++
	id := cc.nextID
	cc.pending[id] = ch
	cc.pmu.Unlock()
	return id, ch
}

// unregister removes the id and reports whether it was still pending. A
// false return means the read loop already claimed the id, and its send
// into the 1-buffered reply channel is committed — the caller can (and
// should) still collect the verdict.
func (cc *clientConn) unregister(id uint64) bool {
	cc.pmu.Lock()
	_, ok := cc.pending[id]
	delete(cc.pending, id)
	cc.pmu.Unlock()
	return ok
}

// registerBatch allocates a batch id and its 1-buffered reply channel.
// Batch ids come from the same counter as request ids, so singles and
// batches pipeline on one connection without colliding.
func (cc *clientConn) registerBatch() (uint64, chan verdictBatchFrame) {
	ch := make(chan verdictBatchFrame, 1)
	cc.pmu.Lock()
	cc.nextID++
	id := cc.nextID
	cc.batchPending[id] = ch
	cc.pmu.Unlock()
	return id, ch
}

// unregisterBatch is unregister for batch ids, with the same claimed
// contract.
func (cc *clientConn) unregisterBatch(id uint64) bool {
	cc.pmu.Lock()
	_, ok := cc.batchPending[id]
	delete(cc.batchPending, id)
	cc.pmu.Unlock()
	return ok
}

// send writes one frame. The flush is immediate: pipelining comes from
// many goroutines overlapping requests, not from delaying writes.
func (cc *clientConn) send(buf []byte) error {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	if _, err := cc.bw.Write(buf); err != nil {
		return cc.fail("write", err)
	}
	if err := cc.bw.Flush(); err != nil {
		return cc.fail("write", err)
	}
	return nil
}

// readLoop routes verdicts to their waiters. Frames are read into one
// connection-owned payload buffer (grown at most to maxPayload): the
// decoders copy out every field and message, so nothing routed to a
// waiter aliases it.
func (cc *clientConn) readLoop(br *bufio.Reader) {
	var scratch []byte
	for {
		payload, err := readFrame(br, scratch)
		if err != nil {
			cc.fail("read", err)
			return
		}
		scratch = payload[:0]
		switch payload[0] {
		case frameVerdict:
			v, err := decodeVerdict(payload)
			if err != nil {
				cc.fail("read", err)
				return
			}
			cc.pmu.Lock()
			ch, ok := cc.pending[v.ID]
			delete(cc.pending, v.ID)
			cc.pmu.Unlock()
			if ok {
				ch <- v // 1-buffered: never blocks, late receivers already unregistered
			}
		case frameVerdictBatch:
			// Decode into a pooled verdict slice. Ownership transfers
			// with the frame: the waiter that receives vb releases the
			// slice after mapping it; with no waiter left (timed out and
			// unregistered), it goes back here.
			vb, err := decodeVerdictBatchInto(payload, getVerdicts())
			if err != nil {
				putVerdicts(vb.Verdicts)
				cc.fail("read", err)
				return
			}
			cc.pmu.Lock()
			ch, ok := cc.batchPending[vb.ID]
			delete(cc.batchPending, vb.ID)
			cc.pmu.Unlock()
			if ok {
				ch <- vb // 1-buffered, same contract as singles
			} else {
				putVerdicts(vb.Verdicts)
			}
		default:
			cc.fail("read", fmt.Errorf("unexpected frame type %d", payload[0]))
			return
		}
	}
}

// fail records the sticky transport error, wakes every waiter and kills
// the connection.
func (cc *clientConn) fail(op string, err error) error {
	cc.pmu.Lock()
	if cc.err == nil {
		cc.err = &TransportError{Op: op, Err: err}
	}
	out := cc.err
	cc.pmu.Unlock()
	cc.deadOnce.Do(func() { close(cc.dead) })
	if cc.nc != nil {
		cc.nc.Close()
	}
	return out
}

func (cc *clientConn) transportErr() error {
	cc.pmu.Lock()
	defer cc.pmu.Unlock()
	if cc.err == nil {
		return &TransportError{Op: "submit", Err: errors.New("connection closed")}
	}
	return cc.err
}

func (cc *clientConn) isDead() bool {
	select {
	case <-cc.dead:
		return true
	default:
		return false
	}
}

func (cc *clientConn) close() error {
	cc.fail("close", errors.New("client closed"))
	return nil
}
