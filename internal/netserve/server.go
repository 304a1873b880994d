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
	"loadmax/internal/serve"
)

// Admitter is what the wire front end serves: anything that can decide
// jobs and describe its serving topology for the HELLO ack.
// serve.Service is the canonical implementation; the gateway implements
// it one level up (its "shards" are backend groups), which is how the
// whole protocol surface — windows, shedding, batching, spans — is
// reused verbatim in front of a cluster. Every dispatch unit — a read
// burst of SUBMIT frames or one SUBMIT-BATCH frame — is one
// SubmitBatchSpan call, which must return one result per job, aligned
// with jobs, and must keep the jobs' relative order on every shard. A
// returned serve.ErrBackpressure is answered as a SHED verdict
// (retryable overload); any other error as a server-error verdict.
type Admitter interface {
	Shards() int
	Machines() int
	Eps() float64
	AdmissionPolicy() string
	SubmitBatchSpan(jobs []job.Job, sp *obs.Span) []serve.BatchResult
}

// ServerOption configures a Server.
type ServerOption func(*serverConfig)

type serverConfig struct {
	window       int
	maxInflight  int
	writeTimeout time.Duration
	helloTimeout time.Duration
	reg          *obs.Registry
	spans        *obs.SpanRecorder
	submitGate   func() // test-only: blocks each dispatch unit's worker before SubmitBatchSpan
}

func defaultServerConfig() serverConfig {
	return serverConfig{
		window:       256,
		maxInflight:  4096,
		writeTimeout: 10 * time.Second,
		helloTimeout: 10 * time.Second,
	}
}

// WithWindow sets the per-connection in-flight window (default 256): the
// server dispatches at most this many concurrent requests per
// connection and sheds the excess. Every SUBMIT frame takes one window
// slot, whether or not it shares a dispatch unit with others; a
// submit-batch frame occupies ONE window slot regardless of how many
// jobs it carries. The window is advertised in the handshake, and the
// Client self-limits to it, so a conforming client only ever sees
// window sheds from a misbehaving peer sharing its id space. Values < 1
// are clamped to 1.
func WithWindow(n int) ServerOption { return func(c *serverConfig) { c.window = n } }

// WithMaxInflight caps the server-wide number of requests inside the
// Admitter at once (default 4096), counted as WithWindow counts them.
// Beyond the cap the server sheds instead of queueing: shedding is
// overload protection, distinct from both algorithmic rejection and the
// serve layer's backpressure, and the client may retry. Values < 1 are
// clamped to 1.
func WithMaxInflight(n int) ServerOption { return func(c *serverConfig) { c.maxInflight = n } }

// WithWriteTimeout bounds how long a verdict write may block on a slow
// client before the connection is cut (default 10s). A client that
// stops reading would otherwise pin worker results in the writer
// forever; disconnecting it frees the window and lets the client
// re-dial when healthy.
func WithWriteTimeout(d time.Duration) ServerOption {
	return func(c *serverConfig) { c.writeTimeout = d }
}

// WithServerMetrics instruments the server through the registry:
//
//	netserve_connections            gauge     open connections
//	netserve_inflight               gauge     requests inside Submit
//	netserve_requests_total{verdict} counter  accept/reject/shed/error
//	netserve_shed_total             counter   shed verdicts (either cause)
//	netserve_slow_disconnects_total counter   write-timeout disconnects
//	netserve_request_seconds        histogram SubmitBatchSpan latency, one sample per dispatch unit
//	netserve_rx_frames_total        counter   submit + submit-batch frames read
//	netserve_tx_flushes_total       counter   writer flushes (socket writes of coalesced verdict frames)
//
// A dispatch unit is the SUBMIT frames of one read burst or one
// SUBMIT-BATCH frame, so rx frames over request_seconds' count is the
// frames per dispatch unit, and verdict frames over tx flushes is the
// frames per flush.
//
// A nil registry (the default) keeps the hot path metric-free.
func WithServerMetrics(reg *obs.Registry) ServerOption { return func(c *serverConfig) { c.reg = reg } }

// WithServerSpans attaches a span recorder: every dispatched request
// gets a lifecycle span covering frame decode, shard queue wait, engine
// decide, WAL commit (via the service, which must share the recorder
// through serve.WithSpans), and the reply write, finished when its
// verdict hits the wire. A SUBMIT frame keeps its own span (its JobID,
// its own decode stage) inside a burst; the queue, decide and WAL stages
// come from the burst's one SubmitBatchSpan call, with the wait between
// the frame's admission and the burst's dispatch counted as queue wait.
// A SUBMIT-BATCH frame gets one span. Shed frames are answered before
// dispatch and carry no span. A nil recorder (the default) keeps the
// path span-free.
func WithServerSpans(rec *obs.SpanRecorder) ServerOption {
	return func(c *serverConfig) { c.spans = rec }
}

// WithHelloTimeout bounds the HELLO handshake read (default 10s): a
// peer that connects and then sends nothing — or trickles a frame
// forever, the classic slow loris — is cut when the deadline expires
// instead of pinning a connection goroutine for the life of the
// process. Values <= 0 keep the default.
func WithHelloTimeout(d time.Duration) ServerOption {
	return func(c *serverConfig) {
		if d > 0 {
			c.helloTimeout = d
		}
	}
}

// withSubmitGate is the white-box test hook: f runs once per dispatch
// unit, in its worker, after the unit's in-flight slots are taken and
// before SubmitBatchSpan, letting tests hold the server at a chosen
// occupancy deterministically.
func withSubmitGate(f func()) ServerOption { return func(c *serverConfig) { c.submitGate = f } }

// Server is the TCP admission front end over an Admitter (usually a
// serve.Service; the gateway for a cluster). Construct with Serve or
// ServeListener; Close drains gracefully. The Server does not own the
// Admitter — closing the server leaves it (and its durability state)
// untouched.
type Server struct {
	svc Admitter
	ln  net.Listener
	cfg serverConfig

	inflight chan struct{} // server-wide Submit slots

	mu     sync.Mutex
	closed bool
	conns  map[*srvConn]struct{}
	wg     sync.WaitGroup

	connGauge     *obs.Gauge
	inflightGauge *obs.Gauge
	verdicts      *obs.CounterVec
	shedTotal     *obs.Counter
	slowCuts      *obs.Counter
	latHist       *obs.Histogram
	rxFrames      *obs.Counter
	txFlushes     *obs.Counter

	// Pre-resolved members of the verdicts family: With() takes the
	// family mutex, so the per-request paths resolve each label exactly
	// once here instead of once per verdict.
	vAccept *obs.Counter
	vReject *obs.Counter
	vShed   *obs.Counter
	vError  *obs.Counter

	connSeq atomic.Int64 // stripe-lane assignment for new connections
}

// connStripes is one connection's set of cache-line-padded counter
// lanes, resolved once at accept time: connections hammering the shared
// per-request counters from different cores land on different lanes
// instead of false-sharing one cell, and the verdict-family mutex is
// off the hot path entirely. All handles are nil-safe (no registry →
// nil lanes).
type connStripes struct {
	rx       *obs.CounterStripe
	accept   *obs.CounterStripe
	reject   *obs.CounterStripe
	shed     *obs.CounterStripe
	errs     *obs.CounterStripe
	shedTot  *obs.CounterStripe
	flushes  *obs.CounterStripe
	inflight *obs.GaugeStripe
}

func (s *Server) newConnStripes() connStripes {
	lane := int(s.connSeq.Add(1))
	return connStripes{
		rx:       s.rxFrames.Stripe(lane),
		accept:   s.vAccept.Stripe(lane),
		reject:   s.vReject.Stripe(lane),
		shed:     s.vShed.Stripe(lane),
		errs:     s.vError.Stripe(lane),
		shedTot:  s.shedTotal.Stripe(lane),
		flushes:  s.txFlushes.Stripe(lane),
		inflight: s.inflightGauge.Stripe(lane),
	}
}

// Serve listens on addr ("host:port"; ":0" picks a free port) and
// serves svc until Close. It returns once the listener is live.
func Serve(svc Admitter, addr string, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netserve: listen %s: %w", addr, err)
	}
	return ServeListener(svc, ln, opts...)
}

// ServeListener serves svc on an existing listener — loopback tests,
// socket activation, in-process pipes. The server owns the listener and
// closes it on Close.
func ServeListener(svc Admitter, ln net.Listener, opts ...ServerOption) (*Server, error) {
	cfg := defaultServerConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.window < 1 {
		cfg.window = 1
	}
	if cfg.maxInflight < 1 {
		cfg.maxInflight = 1
	}
	s := &Server{
		svc:      svc,
		ln:       ln,
		cfg:      cfg,
		inflight: make(chan struct{}, cfg.maxInflight),
		conns:    make(map[*srvConn]struct{}),

		connGauge:     cfg.reg.Gauge("netserve_connections"),
		inflightGauge: cfg.reg.Gauge("netserve_inflight"),
		verdicts:      cfg.reg.CounterVec("netserve_requests_total", "verdict"),
		shedTotal:     cfg.reg.Counter("netserve_shed_total"),
		slowCuts:      cfg.reg.Counter("netserve_slow_disconnects_total"),
		latHist:       cfg.reg.Histogram("netserve_request_seconds", obs.ExpBucketsRange(1e-6, 4, 12)),
		rxFrames:      cfg.reg.Counter("netserve_rx_frames_total"),
		txFlushes:     cfg.reg.Counter("netserve_tx_flushes_total"),
	}
	s.vAccept = s.verdicts.With("accept")
	s.vReject = s.verdicts.With("reject")
	s.vShed = s.verdicts.With("shed")
	s.vError = s.verdicts.With("error")
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Listener exposes the server's listener so in-process harnesses (the
// gateway tests, the cluster bench) can hold the real net.Listener of a
// backend they plan to kill.
func (s *Server) Listener() net.Listener { return s.ln }

// Abort kills the server without draining: the listener and every
// connection close immediately, so verdicts still in flight never reach
// the wire and clients observe transport errors — the in-process
// equivalent of kill -9 at the wire layer. The underlying Admitter is
// untouched: requests already dispatched into it run to completion
// server-side, they just go unacknowledged, which is exactly the
// "decided but never acked" tail the failover proof reasons about.
// Idempotent, and mutually idempotent with Close.
func (s *Server) Abort() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Close drains the server gracefully: stop accepting, stop reading new
// frames, let every dispatched request finish and its verdict reach the
// wire, then close the connections. Requests written by clients but not
// yet read are lost — the client observes a transport error, never a
// fabricated verdict. Close is idempotent and does not touch the
// underlying serve.Service.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.stopReading()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		c := &srvConn{s: s, nc: nc, resp: make(chan respEntry, s.cfg.window+16), m: s.newConnStripes()}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go c.run()
	}
}

// respEntry is one reply bound for the wire: the pooled buffer holding
// the encoded frames plus, under tracing, the dispatch unit whose frame
// spans finish with this reply and the recorder-clock mark at which the
// reply was queued (the reply-write stage runs from that mark to the
// flush that puts the frames on the wire). Ownership of fb and u travels
// with the entry: the worker that encoded it hands it to the writer, and
// only the writer releases them — fb after its bytes are copied into the
// buffered writer, u after its spans are finished, both on the discard
// path when the connection dies. The spans never retain frame bytes, so
// releasing fb cannot corrupt a trace.
type respEntry struct {
	fb *frameBuf
	u  *unit
	ns int64
}

// unit is one dispatch unit: the admitted SUBMIT frames of one read
// burst, or one SUBMIT-BATCH frame. A unit gets one worker, one
// Admitter.SubmitBatchSpan call, and one reply buffer holding all of its
// verdict frames, so the writer puts it on the wire with one flush (or
// shares one with other units). Units are pooled with their slices.
type unit struct {
	batch   bool   // one SUBMIT-BATCH frame, answered by one VERDICT-BATCH
	batchID uint64 // the batch frame's id
	ids     []uint64
	jobs    []job.Job
	slots   int // window and in-flight slots the unit holds

	// Tracing only: spans[i] is frame i's span (a batch frame has one),
	// and sp is the unit's own span, handed to SubmitBatchSpan, whose
	// Start is the dispatch mark. It is never finished itself; its
	// stages are copied into the frame spans.
	spans []*obs.Span
	sp    obs.Span
}

var unitPool = sync.Pool{New: func() any { return new(unit) }}

func getUnit() *unit { return unitPool.Get().(*unit) }

// release returns u to the pool; the caller must not touch u afterwards.
func (u *unit) release() {
	clear(u.spans) // the spans belong to the recorder now
	*u = unit{ids: u.ids[:0], jobs: u.jobs[:0], spans: u.spans[:0]}
	unitPool.Put(u)
}

// srvConn is one client connection: a reader goroutine that admits
// pipelined submits and dispatches them in units, one worker goroutine
// per dispatch unit, and a writer goroutine that batches verdicts onto
// the wire.
type srvConn struct {
	s        *Server
	nc       net.Conn
	resp     chan respEntry // encoded verdict frames
	m        connStripes    // this connection's counter lanes
	inflight atomic.Int64
	workers  sync.WaitGroup
}

// stopReading unblocks the reader immediately; in-flight work still
// completes and flushes. (An expired read deadline poisons only reads.)
func (c *srvConn) stopReading() {
	c.nc.SetReadDeadline(time.Now())
}

func (c *srvConn) run() {
	s := c.s
	s.connGauge.Add(1)
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.connGauge.Add(-1)
		s.wg.Done()
	}()

	br := bufio.NewReaderSize(c.nc, 32<<10)
	if err := c.handshake(br); err != nil {
		c.nc.Close()
		return
	}

	writerDone := make(chan struct{})
	go c.writeLoop(writerDone)

	c.readLoop(br)

	// Drain: every dispatched worker posts its verdict, then the writer
	// flushes what is left and exits.
	c.workers.Wait()
	close(c.resp)
	<-writerDone
	c.nc.Close()
}

// handshake performs the version exchange under a deadline, so a silent
// or non-protocol peer cannot pin a connection slot.
func (c *srvConn) handshake(br *bufio.Reader) error {
	c.nc.SetReadDeadline(time.Now().Add(c.s.cfg.helloTimeout))
	payload, err := readFrame(br, nil)
	if err != nil {
		return err
	}
	if err := decodeHello(payload); err != nil {
		return err
	}
	c.nc.SetReadDeadline(time.Time{})
	ack := appendHelloAck(nil, helloAck{
		Version:  ProtocolVersion,
		Window:   uint32(c.s.cfg.window),
		Shards:   uint32(c.s.svc.Shards()),
		Machines: uint32(c.s.svc.Machines()),
		Eps:      c.s.svc.Eps(),
		Policy:   c.s.svc.AdmissionPolicy(),
	})
	c.nc.SetWriteDeadline(time.Now().Add(c.s.cfg.writeTimeout))
	_, err = c.nc.Write(ack)
	return err
}

// readLoop decodes pipelined submits and dispatches them in units.
// Admission control happens here, sequentially per connection and per
// frame, which makes shedding deterministic: a SUBMIT (or SUBMIT-BATCH)
// frame is admitted iff a connection-window slot and a server-wide
// in-flight slot are both free at the moment it is read.
//
// Admitted SUBMIT frames collect into a burst, which is dispatched as
// one unit as soon as the reader holds no further complete frame (so
// the next read could block), before a SUBMIT-BATCH frame, at
// MaxBatchJobs jobs, and when the reader exits. No admitted frame is
// ever held across a blocking read: a burst is exactly what the client
// had already sent, and a corrupt frame after k good ones still gets
// the k verdicts.
func (c *srvConn) readLoop(br *bufio.Reader) {
	rec := c.s.cfg.spans
	var burst *unit
	defer func() { c.dispatch(burst) }()
	var scratch []byte
	for {
		if burst != nil && !frameBuffered(br) {
			c.dispatch(burst)
			burst = nil
		}
		payload, err := readFrame(br, scratch)
		if err != nil {
			return // EOF, deadline from Close, or protocol garbage
		}
		scratch = payload[:0]
		readNs := rec.Now() // span clock mark; 0 when tracing is off
		switch payload[0] {
		case frameSubmit:
			f, err := decodeSubmit(payload)
			if err != nil {
				return
			}
			c.m.rx.Inc()
			if !c.admit() {
				c.shed(f.ID)
				continue
			}
			if burst == nil {
				burst = getUnit()
			}
			burst.ids = append(burst.ids, f.ID)
			burst.jobs = append(burst.jobs, f.Job)
			burst.slots++
			// The span is allocated only for dispatched requests and only
			// under tracing; its decode stage covers frame parse + admission.
			if rec != nil {
				sp := &obs.Span{JobID: int64(f.Job.ID), Start: readNs}
				sp.Stages[obs.StageDecode] = rec.Now() - readNs
				burst.spans = append(burst.spans, sp)
			}
			if len(burst.jobs) == MaxBatchJobs {
				c.dispatch(burst)
				burst = nil
			}
		case frameSubmitBatch:
			// A batch frame is its own dispatch unit — one window slot, one
			// in-flight slot, one worker — and the frames before it are
			// dispatched first. Shedding is all-or-nothing per batch, so a
			// conforming client never sees a partially shed batch.
			c.dispatch(burst)
			burst = nil
			f, err := decodeSubmitBatch(payload)
			if err != nil {
				return
			}
			c.m.rx.Inc()
			if !c.admit() {
				c.shedBatch(f.ID, len(f.Jobs))
				continue
			}
			u := getUnit()
			u.batch, u.batchID, u.jobs, u.slots = true, f.ID, f.Jobs, 1
			if rec != nil {
				sp := &obs.Span{JobID: int64(f.Jobs[0].ID), Start: readNs}
				sp.Stages[obs.StageDecode] = rec.Now() - readNs
				u.spans = append(u.spans, sp)
			}
			c.dispatch(u)
		default:
			return // handshake is over; anything but a submit is a protocol error
		}
	}
}

// admit takes one connection-window slot and one server-wide in-flight
// slot — a batch frame counts as one, as does each SUBMIT frame of a
// burst — or reports that the frame must be shed. Admission stays
// sequential per connection (only the reader calls it), which keeps
// shedding deterministic.
func (c *srvConn) admit() bool {
	s := c.s
	if c.inflight.Load() >= int64(s.cfg.window) {
		return false
	}
	select {
	case s.inflight <- struct{}{}:
	default:
		return false
	}
	c.inflight.Add(1)
	c.m.inflight.Add(1)
	return true
}

// dispatch hands a unit to its own worker. A nil unit (no open burst)
// is a no-op.
func (c *srvConn) dispatch(u *unit) {
	if u == nil {
		return
	}
	if rec := c.s.cfg.spans; rec != nil {
		u.sp.Start = rec.Now()
	}
	c.workers.Add(1)
	go c.serveUnit(u)
}

// shed answers a request the server refused to dispatch. The send
// blocks if the writer is behind, which throttles a flooding client
// instead of buffering unboundedly; the write timeout cuts the
// connection if the client will not drain.
func (c *srvConn) shed(id uint64) {
	c.m.shedTot.Inc()
	c.m.shed.Inc()
	fb := getFrameBuf()
	fb.b = appendVerdict(fb.b, verdictFrame{ID: id, Status: statusShed})
	c.resp <- respEntry{fb: fb}
}

// shedBatch answers a whole batch the server refused to dispatch: one
// verdict-batch frame with every entry shed. The shed counters advance
// per job — a shed batch is n refused admissions, not one.
func (c *srvConn) shedBatch(id uint64, n int) {
	c.m.shedTot.Add(int64(n))
	c.m.shed.Add(int64(n))
	out := verdictBatchFrame{ID: id, Verdicts: make([]batchVerdict, n)}
	for i := range out.Verdicts {
		out.Verdicts[i].Status = statusShed
	}
	fb := getFrameBuf()
	fb.b = appendVerdictBatch(fb.b, out)
	c.resp <- respEntry{fb: fb}
}

// serveUnit runs one dispatch unit through the Admitter and posts all of
// its verdicts as one reply. SubmitBatchSpan keeps the unit's job order
// on every shard and returns only once every job has its verdict —
// under durability, once every shard's sub-batch has group-committed —
// so each verdict on the wire is a kept promise, and a burst costs one
// fsync per shard it touches, exactly as a batch frame does.
func (c *srvConn) serveUnit(u *unit) {
	defer c.workers.Done()
	s := c.s
	rec := s.cfg.spans
	if s.cfg.submitGate != nil {
		s.cfg.submitGate()
	}
	var usp *obs.Span
	if rec != nil {
		usp = &u.sp
	}
	start := time.Now()
	results := s.svc.SubmitBatchSpan(u.jobs, usp)
	s.latHist.Observe(time.Since(start).Seconds())
	for range u.slots {
		<-s.inflight
	}
	c.inflight.Add(-int64(u.slots))
	c.m.inflight.Add(-float64(u.slots))

	fb := getFrameBuf()
	if u.batch {
		out := verdictBatchFrame{ID: u.batchID, Verdicts: make([]batchVerdict, len(results))}
		for i, r := range results {
			out.Verdicts[i] = c.verdict(r)
		}
		fb.b = appendVerdictBatch(fb.b, out)
	} else {
		for i, r := range results {
			v := c.verdict(r)
			fb.b = appendVerdict(fb.b, verdictFrame{ID: u.ids[i], Status: v.Status, Machine: v.Machine, Start: v.Start, Msg: v.Msg})
			if rec != nil {
				u.spans[i].Verdict = spanVerdicts[v.Status]
			}
		}
	}
	if rec == nil {
		u.release()
		c.resp <- respEntry{fb: fb}
		return
	}
	if u.batch {
		u.spans[0].Verdict = batchLabel(results)
	}
	for _, sp := range u.spans {
		// The frame waited from the end of its own decode until the unit
		// was dispatched, then for as long as the unit's call queued.
		sp.Stages[obs.StageQueue] = u.sp.Start - (sp.Start + sp.Stages[obs.StageDecode]) + u.sp.Stages[obs.StageQueue]
		sp.Stages[obs.StageDecide] = u.sp.Stages[obs.StageDecide]
		sp.Stages[obs.StageWAL] = u.sp.Stages[obs.StageWAL]
		sp.Shard = u.sp.Shard
	}
	c.resp <- respEntry{fb: fb, u: u, ns: rec.Now()}
}

// verdict maps one Admitter result onto its wire verdict and counts it.
func (c *srvConn) verdict(r serve.BatchResult) batchVerdict {
	switch {
	case errors.Is(r.Err, serve.ErrBackpressure):
		// The shard queue itself is full: same overload story, same
		// retryable verdict.
		c.m.shedTot.Inc()
		c.m.shed.Inc()
		return batchVerdict{Status: statusShed}
	case r.Err != nil:
		c.m.errs.Inc()
		return batchVerdict{Status: statusError, Msg: r.Err.Error()}
	case r.Dec.Accepted:
		c.m.accept.Inc()
		return batchVerdict{Status: statusAccept, Machine: int64(r.Dec.Machine), Start: r.Dec.Start}
	default:
		c.m.reject.Inc()
		return batchVerdict{Status: statusReject}
	}
}

// spanVerdicts labels a request's span by its wire status.
var spanVerdicts = [...]string{
	statusAccept: obs.VerdictAccept,
	statusReject: obs.VerdictReject,
	statusShed:   obs.VerdictShed,
	statusError:  obs.VerdictError,
}

// batchLabel labels a batch frame's one span: accept dominates (at least
// one commitment was made), then error, then reject.
func batchLabel(results []serve.BatchResult) string {
	label := obs.VerdictReject
	for _, r := range results {
		if r.Err == nil && r.Dec.Accepted {
			return obs.VerdictAccept
		}
		if r.Err != nil {
			label = obs.VerdictError
		}
	}
	return label
}

// writeLoop batches verdicts onto the wire: it blocks for one reply,
// then opportunistically coalesces everything already queued into the
// buffered writer and flushes once — the mirror image of the shard
// goroutine's batch draining. A write (or flush) that cannot complete
// within the write timeout marks the client slow and cuts the
// connection; pending verdicts are discarded, which is safe because the
// decisions themselves are already recorded server-side.
func (c *srvConn) writeLoop(done chan struct{}) {
	defer close(done)
	rec := c.s.cfg.spans
	bw := bufio.NewWriterSize(c.nc, 32<<10)
	fail := func(err error) {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			c.s.slowCuts.Inc()
		}
		c.nc.Close() // unblocks the reader; workers still drain into resp
		for e := range c.resp {
			// Discard until the conn goroutine closes the channel; the
			// pooled buffers still go back — losing a frame must not
			// leak its scratch.
			e.fb.release()
			if e.u != nil {
				e.u.release()
			}
		}
	}
	// pending collects the traced units coalesced into the current flush;
	// their frame spans finish together once the flush lands on the wire.
	// Spans of frames lost to a write failure are dropped, matching the
	// verdicts themselves.
	var pending []respEntry
	for e := range c.resp {
		c.nc.SetWriteDeadline(time.Now().Add(c.s.cfg.writeTimeout))
		// bufio.Writer copies on Write, so the pooled buffer is free the
		// moment Write returns — no need to hold it across the flush.
		_, err := bw.Write(e.fb.b)
		e.fb.release()
		if err != nil {
			fail(err)
			return
		}
		if e.u != nil {
			pending = append(pending, e)
		}
	coalesce:
		for {
			select {
			case more, ok := <-c.resp:
				if !ok {
					break coalesce
				}
				_, err := bw.Write(more.fb.b)
				more.fb.release()
				if err != nil {
					fail(err)
					return
				}
				if more.u != nil {
					pending = append(pending, more)
				}
			default:
				break coalesce
			}
		}
		if err := bw.Flush(); err != nil {
			fail(err)
			return
		}
		c.m.flushes.Inc()
		if len(pending) > 0 {
			flushedNs := rec.Now()
			for _, p := range pending {
				for _, sp := range p.u.spans {
					sp.Stages[obs.StageReply] = flushedNs - p.ns
					rec.Finish(sp)
				}
				p.u.release()
			}
			clear(pending)
			pending = pending[:0]
		}
	}
}
