package gateway

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"loadmax/internal/job"
	"loadmax/internal/netserve"
	"loadmax/internal/obs"
	"loadmax/internal/online"
	"loadmax/internal/serve"
)

// Backend roles and group states, exposed through Status.
const (
	RolePrimary = "primary"
	RoleStandby = "standby"
	RoleDrained = "drained" // retired by a planned drain
	RoleDead    = "dead"    // retired by a failover

	StateActive      = "active"       // primary + standby
	StateDegraded    = "degraded"     // primary only, no standby left
	StateFailingOver = "failing-over" // mirror flush + promotion in progress
	StateDown        = "down"         // no serviceable backend
)

// backend is one dialed daemon: its sequencing client (one connection,
// one SubmitBatch in flight — that single-file discipline is what makes
// the backend's decision order a function of gateway batch order) plus
// health state maintained by the prober.
type backend struct {
	addr   string
	client *netserve.Client

	role    atomic.Value // string
	healthy atomic.Bool
	fails   atomic.Int32 // consecutive probe failures
	jobs    atomic.Int64 // verdicts decided via this backend
}

func dialBackend(gw *Gateway, addr, role string) (*backend, error) {
	cl, err := netserve.Dial(addr,
		netserve.WithConns(1),
		netserve.WithTimeout(gw.cfg.callTimeout),
		netserve.WithDialTimeout(gw.cfg.dialTimeout))
	if err != nil {
		return nil, fmt.Errorf("gateway: backend %s: %w", addr, err)
	}
	if err := gw.checkTopology(addr, cl); err != nil {
		cl.Close()
		return nil, err
	}
	b := &backend{addr: addr, client: cl}
	b.role.Store(role)
	b.healthy.Store(true)
	return b, nil
}

// gwReq is one submission (single job or a group's slice of a batch)
// waiting in a group intake. The sequencer fills out and closes done.
type gwReq struct {
	jobs []job.Job
	out  []serve.BatchResult
	idxs []int // original batch positions (batch scatter/gather only)
	sp   *obs.Span
	enq  int64 // span-clock mark at enqueue
	done chan struct{}
}

// mirrorRec is one decided batch bound for the standby: the jobs that
// actually received verdicts (accepts AND rejects — a reject advances
// the policy clock and must replay too; sheds and errors never reached
// a scheduler and must not), in primary decision order, with the
// primary's verdicts to compare against.
type mirrorRec struct {
	jobs []job.Job
	decs []online.Decision
}

// group is one routing slot: a primary backend, an optional warm
// standby, the single-writer sequencer that owns all primary traffic,
// and the mirror loop that replays decided batches to the standby.
type group struct {
	id int
	gw *Gateway

	qmu     sync.Mutex
	qClosed bool
	intake  chan *gwReq

	// Backend handles; bmu guards the pointers (sequencer writes on
	// failover, prober and Status read), retired keeps old backends
	// visible in Status.
	bmu     sync.Mutex
	primary *backend
	standby *backend
	retired []*backend

	state atomic.Value // string: StateActive...

	mirrorQ     chan mirrorRec
	mirrorStop  chan struct{}
	mirrorOnce  sync.Once
	mirrorDone  chan struct{}
	mirrorLag   atomic.Int64 // decided jobs enqueued, not yet applied
	standbyLost atomic.Bool  // mirror hit a hard standby error
	diverged    atomic.Bool  // standby contradicted a primary verdict

	failoverCh chan *backend   // prober: this primary looks dead
	drainCh    chan chan error // DrainBackend rendezvous

	seqDone chan struct{}

	decided        atomic.Int64
	jobsCtr        *obs.Counter // gateway_jobs_total{group=<id>}
	failoverCount  atomic.Int64
	lastFailoverNs atomic.Int64

	jmu     sync.Mutex
	journal []JournalEntry

	scratch []job.Job // batch-concat reuse, sequencer-owned
}

func newGroup(gw *Gateway, id int, spec BackendSpec) (*group, error) {
	g := &group{
		id:         id,
		gw:         gw,
		intake:     make(chan *gwReq, gw.cfg.intakeDepth),
		mirrorQ:    make(chan mirrorRec, gw.cfg.mirrorDepth),
		mirrorStop: make(chan struct{}),
		mirrorDone: make(chan struct{}),
		failoverCh: make(chan *backend, 1),
		drainCh:    make(chan chan error),
		seqDone:    make(chan struct{}),
		jobsCtr:    gw.jobsTotal.With(strconv.Itoa(id)),
	}
	var err error
	if g.primary, err = dialBackend(gw, spec.Primary, RolePrimary); err != nil {
		return nil, err
	}
	if spec.Standby != "" {
		if g.standby, err = dialBackend(gw, spec.Standby, RoleStandby); err != nil {
			g.primary.client.Close()
			return nil, err
		}
		g.state.Store(StateActive)
	} else {
		g.state.Store(StateDegraded)
		close(g.mirrorDone) // no mirror loop to wait for
	}
	return g, nil
}

func (g *group) primaryB() *backend {
	g.bmu.Lock()
	defer g.bmu.Unlock()
	return g.primary
}

func (g *group) standbyB() *backend {
	g.bmu.Lock()
	defer g.bmu.Unlock()
	return g.standby
}

// enqueue hands a request to the sequencer, shedding when the intake is
// full: bounded queues everywhere, no hidden buffering.
func (g *group) enqueue(r *gwReq) error {
	g.qmu.Lock()
	if g.qClosed {
		g.qmu.Unlock()
		return ErrClosed
	}
	select {
	case g.intake <- r:
		g.qmu.Unlock()
		return nil
	default:
		g.qmu.Unlock()
		g.gw.shedIntake.Add(int64(len(r.jobs)))
		return serve.ErrBackpressure
	}
}

func (g *group) closeIntake() {
	g.qmu.Lock()
	if !g.qClosed {
		g.qClosed = true
		close(g.intake)
	}
	g.qmu.Unlock()
}

func (g *group) stopMirror() {
	g.mirrorOnce.Do(func() { close(g.mirrorStop) })
}

// run is the group sequencer: the single goroutine that talks to the
// primary. It coalesces queued requests into one SubmitBatch (up to
// batchLimit jobs), keeps exactly one call in flight, and handles
// failover and drain requests between batches — never mid-batch, so a
// promotion always happens on a batch boundary.
func (g *group) run() {
	defer close(g.seqDone)
	var batch []*gwReq
	for {
		select {
		case r, ok := <-g.intake:
			if !ok {
				return
			}
			batch = append(batch, r)
		case b := <-g.failoverCh:
			g.maybeFailover(b)
			continue
		case ch := <-g.drainCh:
			ch <- g.failover("drain")
			continue
		}
		total := len(batch[0].jobs)
	coalesce:
		for total < g.gw.cfg.batchLimit {
			select {
			case r, ok := <-g.intake:
				if !ok {
					break coalesce
				}
				batch = append(batch, r)
				total += len(r.jobs)
			default:
				break coalesce
			}
		}
		g.processBatch(batch)
		batch = batch[:0]
	}
}

// maybeFailover acts on a prober signal, but only if it names the
// backend that is still the primary — a signal raced against an
// already-completed failover must not kill the freshly promoted
// standby.
func (g *group) maybeFailover(b *backend) {
	if g.primaryB() != b || g.state.Load() == StateDown {
		return
	}
	g.failover("probe threshold") //nolint:errcheck // state + metrics carry the outcome
}

// requestDrain rendezvouses with the sequencer so the drain runs on a
// batch boundary.
func (g *group) requestDrain() error {
	ch := make(chan error, 1)
	select {
	case g.drainCh <- ch:
		return <-ch
	case <-g.seqDone:
		return ErrClosed
	}
}

// processBatch drives one sequenced round trip: concat the coalesced
// requests, reserve mirror capacity, submit to the primary, scatter the
// verdicts back, journal + mirror the decided ones, ack. Ordering
// invariant: ack (closing r.done) happens only after the decided
// records are journaled and enqueued for the mirror, so an
// acknowledged verdict can never be missing from a flushed standby.
func (g *group) processBatch(reqs []*gwReq) {
	total := 0
	for _, r := range reqs {
		total += len(r.jobs)
	}
	jobs := g.scratch[:0]
	for _, r := range reqs {
		jobs = append(jobs, r.jobs...)
	}
	g.scratch = jobs

	if g.state.Load() == StateDown {
		g.failAll(reqs, ErrGroupDown)
		return
	}

	// Mirror-lag bound: if the standby is behind by a full queue, shed
	// new work instead of letting the lag grow (or, worse, dropping
	// mirror records). Sole-producer discipline makes the reservation
	// sound: only this goroutine enqueues, so a free slot seen here is
	// still free after the primary call.
	if g.standbyB() != nil && len(g.mirrorQ) == cap(g.mirrorQ) {
		g.gw.shedMirror.Add(int64(total))
		for _, r := range reqs {
			for i := range r.out {
				r.out[i] = serve.BatchResult{Err: serve.ErrBackpressure}
			}
		}
		g.finish(reqs, 0)
		return
	}

	callStart := g.gw.cfg.spans.Now()
	res, err := g.submitPrimary(jobs)
	if err != nil {
		// Transport failure, timeout, or backend-down: the outcome of
		// this batch is unknown and nothing was acked, so re-deciding it
		// on the promoted standby is safe. Fail over, retry once.
		if ferr := g.failover("submit: " + err.Error()); ferr != nil {
			g.failAll(reqs, err)
			return
		}
		if res, err = g.submitPrimary(jobs); err != nil {
			g.failAll(reqs, err)
			return
		}
	}
	callDur := g.gw.cfg.spans.Now() - callStart

	rec := mirrorRec{}
	mirror := g.standbyB() != nil
	off := 0
	decided := 0
	for _, r := range reqs {
		for i := range r.jobs {
			br := res[off]
			off++
			switch {
			case br.Err == nil:
				r.out[i] = serve.BatchResult{Dec: br.Dec}
				decided++
				if mirror {
					rec.jobs = append(rec.jobs, r.jobs[i])
					rec.decs = append(rec.decs, br.Dec)
				}
				if g.gw.cfg.journal {
					g.jmu.Lock()
					g.journal = append(g.journal, JournalEntry{Job: r.jobs[i], Dec: br.Dec})
					g.jmu.Unlock()
				}
			case errors.Is(br.Err, netserve.ErrShed):
				// Backend overload maps back to the gateway's own shed
				// verdict: retryable, never decided, never mirrored.
				r.out[i] = serve.BatchResult{Err: serve.ErrBackpressure}
			default:
				r.out[i] = serve.BatchResult{Err: br.Err}
			}
		}
	}
	if decided > 0 {
		g.decided.Add(int64(decided))
		g.jobsCtr.Add(int64(decided))
		g.primaryB().jobs.Add(int64(decided))
	}
	if mirror && len(rec.jobs) > 0 {
		lag := g.mirrorLag.Add(int64(len(rec.jobs)))
		g.gw.lagGauge.Set(float64(totalLag(g.gw)))
		g.gw.lagHist.Observe(float64(lag))
		g.mirrorQ <- rec // capacity reserved above; never blocks
	}
	g.finish(reqs, callDur)
}

// submitPrimary is the one SubmitBatch in flight for this group. The
// client chunks transparently at MaxBatchJobs, awaiting each chunk —
// single-file even for oversized batches.
func (g *group) submitPrimary(jobs []job.Job) ([]netserve.BatchResult, error) {
	return g.primaryB().client.SubmitBatchTimeout(jobs, g.gw.cfg.callTimeout)
}

func (g *group) failAll(reqs []*gwReq, err error) {
	for _, r := range reqs {
		for i := range r.out {
			r.out[i] = serve.BatchResult{Err: err}
		}
	}
	g.finish(reqs, 0)
}

// finish stamps spans and releases the callers.
func (g *group) finish(reqs []*gwReq, callDur int64) {
	rec := g.gw.cfg.spans
	for _, r := range reqs {
		if r.sp != nil && rec != nil {
			r.sp.Shard = int32(g.id)
			r.sp.Stages[obs.StageQueue] += rec.Now() - r.enq - callDur
			r.sp.Stages[obs.StageDecide] += callDur
		}
		close(r.done)
	}
}

// mirrorLoop is the standby's writer: it replays decided batches in
// sequencer order and verifies every standby verdict against the
// primary's. On mirrorStop it flushes everything queued before exiting
// — the flush IS the failover gap-replay.
func (g *group) mirrorLoop() {
	defer close(g.mirrorDone)
	flushing := false
	rec, ok := g.nextMirror(&flushing)
	for ok {
		held, more, applied := g.applyMirror(rec)
		if !applied {
			if more {
				g.mirrorLag.Add(-int64(len(held.jobs)))
			}
			g.drainMirrorQ()
			return
		}
		if more {
			rec = held
		} else {
			rec, ok = g.nextMirror(&flushing)
		}
	}
}

// nextMirror dequeues the next decided batch. Until mirrorStop closes it
// waits for one; from then on (flushing) it takes only what is already
// queued and reports false once the queue is empty.
func (g *group) nextMirror(flushing *bool) (mirrorRec, bool) {
	if !*flushing {
		select {
		case rec := <-g.mirrorQ:
			return rec, true
		case <-g.mirrorStop:
			*flushing = true
		}
	}
	select {
	case rec := <-g.mirrorQ:
		return rec, true
	default:
		return mirrorRec{}, false
	}
}

// drainMirrorQ discards queued records after the standby is lost; the
// lag accounting still settles.
func (g *group) drainMirrorQ() {
	for {
		select {
		case rec := <-g.mirrorQ:
			g.mirrorLag.Add(-int64(len(rec.jobs)))
		default:
			g.gw.lagGauge.Set(float64(totalLag(g.gw)))
			return
		}
	}
}

// applyMirror replays first, together with every decided batch already
// queued behind it, to the standby as one call of at most MaxBatchJobs
// jobs (first alone may be larger), so a standby that fell behind — a
// stall, the failover flush — catches up in one round trip per frame
// rather than one per primary batch. A queued batch that would overflow
// the call is returned as held, to lead the next one. Per-shard order is
// preserved even across shed retries: a call within MaxBatchJobs is one
// frame and serve sheds whole shard sub-batches, so the retried subset
// is exactly the shed shards' jobs in their original relative order.
// Any hard error loses the standby; any verdict mismatch marks it
// diverged — both disqualify it from promotion, loudly. The lag of every
// batch taken settles when the call ends, whatever its outcome.
func (g *group) applyMirror(first mirrorRec) (held mirrorRec, more, ok bool) {
	taken := len(first.jobs)
	defer func() {
		g.mirrorLag.Add(-int64(taken))
		g.gw.lagGauge.Set(float64(totalLag(g.gw)))
	}()
	if gate := g.gw.cfg.mirrorGate; gate != nil {
		gate()
	}
	// The sequencer hands each record's slices over with the record, so
	// appending to first's is safe.
	jobs, decs := first.jobs, first.decs
coalesce:
	for len(jobs) < netserve.MaxBatchJobs {
		select {
		case rec := <-g.mirrorQ:
			if len(jobs)+len(rec.jobs) > netserve.MaxBatchJobs {
				held, more = rec, true
				break coalesce
			}
			jobs = append(jobs, rec.jobs...)
			decs = append(decs, rec.decs...)
			taken += len(rec.jobs)
		default:
			break coalesce
		}
	}
	sb := g.standbyB()
	if sb == nil {
		return held, more, false
	}
	for len(jobs) > 0 {
		res, err := sb.client.SubmitBatchTimeout(jobs, g.gw.cfg.callTimeout)
		if err != nil {
			g.standbyLost.Store(true)
			return held, more, false
		}
		var retryJ []job.Job
		var retryD []online.Decision
		for i, br := range res {
			switch {
			case br.Err == nil:
				if !online.SameDecision(br.Dec, decs[i]) {
					g.diverged.Store(true)
					g.gw.divergence.Inc()
					return held, more, false
				}
				sb.jobs.Add(1)
			case errors.Is(br.Err, netserve.ErrShed):
				retryJ = append(retryJ, jobs[i])
				retryD = append(retryD, decs[i])
			default:
				g.standbyLost.Store(true)
				return held, more, false
			}
		}
		jobs, decs = retryJ, retryD
		if len(jobs) > 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	return held, more, true
}

// failover promotes the standby (sequencer context only). The order is
// the whole correctness story: stop the mirror, wait for it to FLUSH
// every queued decided batch to the standby, check it neither died nor
// diverged doing so, and only then swap — so the promoted backend's
// decision streams contain every acknowledged verdict, bit-identical.
// A planned drain is the same path with a healthier obituary.
func (g *group) failover(reason string) error {
	if g.state.Load() == StateDown {
		return ErrGroupDown
	}
	sb := g.standbyB()
	if sb == nil {
		g.state.Store(StateDown)
		return fmt.Errorf("%w: group %d primary failed (%s) with no standby", ErrGroupDown, g.id, reason)
	}
	t0 := time.Now()
	g.state.Store(StateFailingOver)
	g.stopMirror()
	<-g.mirrorDone
	if g.diverged.Load() {
		g.state.Store(StateDown)
		return fmt.Errorf("%w: group %d standby diverged from primary — refusing to promote a backend that would revoke verdicts", ErrGroupDown, g.id)
	}
	if g.standbyLost.Load() {
		g.state.Store(StateDown)
		return fmt.Errorf("%w: group %d standby lost during mirror flush", ErrGroupDown, g.id)
	}
	g.bmu.Lock()
	old := g.primary
	g.primary = sb
	g.standby = nil
	g.retired = append(g.retired, old)
	g.bmu.Unlock()
	old.client.Close()
	if reason == "drain" {
		old.role.Store(RoleDrained)
	} else {
		old.role.Store(RoleDead)
	}
	old.healthy.Store(false)
	sb.role.Store(RolePrimary)
	g.state.Store(StateDegraded)
	g.failoverCount.Add(1)
	g.lastFailoverNs.Store(time.Since(t0).Nanoseconds())
	g.gw.failovers.Inc()
	return nil
}

func (g *group) closeClients() {
	g.bmu.Lock()
	all := make([]*backend, 0, 4)
	if g.primary != nil {
		all = append(all, g.primary)
	}
	if g.standby != nil {
		all = append(all, g.standby)
	}
	all = append(all, g.retired...)
	g.bmu.Unlock()
	for _, b := range all {
		b.client.Close()
	}
}

func totalLag(gw *Gateway) int64 {
	var n int64
	for _, g := range gw.groups {
		n += g.mirrorLag.Load()
	}
	return n
}
