package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"loadmax/internal/gateway"
	"loadmax/internal/job"
	"loadmax/internal/netserve"
	"loadmax/internal/obs"
	"loadmax/internal/online"
	"loadmax/internal/serve"
)

// rung is one step of the layer ladder. Each rung replays the same
// per-shard streams; a layer's self time is its rung minus its parent.
type rung int

const (
	rCore          rung = iota + 1 // core.Threshold.Submit
	rPolicy                        // policy.Parse(spec).New(...).Submit
	rServeMem                      // in-memory serve.Service
	rServeDurable                  // durable serve.Service restored from the fixture
	rWireStub                      // netserve against a stub Admitter
	rDaemon                        // netserve over the durable service
	rGateway                       // gateway without a standby
	rGatewayMirror                 // gateway with a mirrored standby
)

var rungNames = map[rung]string{
	rCore: "core", rPolicy: "policy", rServeMem: "serve_mem", rServeDurable: "serve_durable",
	rWireStub: "wire_stub", rDaemon: "daemon", rGateway: "gateway", rGatewayMirror: "gateway_mirror",
}

// caller submits one job and returns its verdict.
type caller func(j job.Job) (online.Decision, error)

// isShed reports a retryable overload refusal from any layer.
func isShed(err error) bool {
	return errors.Is(err, serve.ErrBackpressure) || errors.Is(err, netserve.ErrShed)
}

// stack is a running topology for one rung: backends, optional wire and
// gateway, and the load generator's caller for each stream.
type stack struct {
	primaries, standbys []*serve.Service
	regs, sbRegs        []*obs.Registry    // per primary / standby
	servers             []*netserve.Server // backend daemons, or the stub's server
	gw                  *gateway.Gateway
	front               *netserve.Server // the gateway's own server
	gwReg               *obs.Registry
	clients             []*netserve.Client
	callers             []caller // per stream
	restore             time.Duration
	dirs                []string // fresh fixture copies to remove after the round
}

// tracing holds the span recorders of a traced bring-up; nil fields
// leave that tier untraced.
type tracing struct {
	backend *obs.SpanRecorder // primary services and their servers
	front   *obs.SpanRecorder // gateway and its server
}

// copyFixture makes the fresh per-round copies a durable rung restores.
// It is not part of set-up time: an operator's disk already holds the log.
func (b *bench) copyFixture(r rung) ([]string, error) {
	var dirs []string
	for g := 0; g < b.c.groups; g++ {
		n := 1
		if r == rGatewayMirror {
			n = 2
		}
		for k := 0; k < n; k++ {
			d := filepath.Join(b.work, fmt.Sprintf("round-g%d-%d", g, k))
			if err := os.RemoveAll(d); err != nil {
				return nil, err
			}
			if err := copyTree(groupDir(b.fix.dir, g), d); err != nil {
				return nil, err
			}
			dirs = append(dirs, d)
		}
	}
	return dirs, nil
}

// bringUp starts rung r's topology over the fixture copies in dirs (one
// per backend, primaries first within each group) and dials its clients.
func (b *bench) bringUp(r rung, dirs []string, tr tracing) (*stack, error) {
	s := &stack{dirs: dirs}
	c := b.c
	svcOpts := func(reg *obs.Registry, rec *obs.SpanRecorder) []serve.Option {
		opts := []serve.Option{
			serve.WithMetrics(reg), serve.WithPolicy(b.sr), serve.WithAdmissionPolicy(b.builder),
		}
		if rec != nil {
			opts = append(opts, serve.WithSpans(rec))
		}
		return opts
	}
	restore := func(dir string, reg *obs.Registry, rec *obs.SpanRecorder) (*serve.Service, error) {
		t0 := time.Now()
		svc, err := serve.Restore(dir, svcOpts(reg, rec)...)
		s.restore += time.Since(t0)
		return svc, err
	}

	switch r {
	case rServeMem:
		for g := 0; g < c.groups; g++ {
			reg := obs.NewRegistry()
			svc, err := serve.New(shards, machines, eps, svcOpts(reg, tr.backend)...)
			if err != nil {
				s.close()
				return nil, err
			}
			s.primaries, s.regs = append(s.primaries, svc), append(s.regs, reg)
			if err := b.prefill(svc, g); err != nil {
				s.close()
				return nil, err
			}
		}
	case rServeDurable, rDaemon, rGateway, rGatewayMirror:
		per := len(dirs) / c.groups
		for g := 0; g < c.groups; g++ {
			reg := obs.NewRegistry()
			svc, err := restore(dirs[g*per], reg, tr.backend)
			if err != nil {
				s.close()
				return nil, err
			}
			s.primaries, s.regs = append(s.primaries, svc), append(s.regs, reg)
			if per == 2 {
				sreg := obs.NewRegistry()
				sb, err := restore(dirs[g*per+1], sreg, nil)
				if err != nil {
					s.close()
					return nil, err
				}
				s.standbys, s.sbRegs = append(s.standbys, sb), append(s.sbRegs, sreg)
			}
		}
	}

	var err error
	switch r {
	case rServeMem, rServeDurable:
		err = s.inprocCallers(b, tr.backend)
	case rWireStub:
		err = s.stubCallers(b)
	case rDaemon:
		err = s.daemonCallers(b, tr)
	case rGateway, rGatewayMirror:
		err = s.gatewayCallers(b, tr)
	default:
		err = fmt.Errorf("rung %d has no stack", r)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// prefill feeds group g's fixture prefix to an in-memory service in one
// ordered stream, bringing it to the state a restore would.
func (b *bench) prefill(svc *serve.Service, g int) error {
	var jobs []job.Job
	for _, st := range b.streams {
		if st.group == g {
			jobs = append(jobs, st.prefix...)
		}
	}
	// Per-shard order is all that matters; streams keep it.
	for off := 0; off < len(jobs); off += fixtureChunk {
		for _, r := range svc.SubmitBatch(jobs[off:min(off+fixtureChunk, len(jobs))]) {
			if r.Err != nil {
				return fmt.Errorf("prefill group %d: %w", g, r.Err)
			}
		}
	}
	return nil
}

func (s *stack) inprocCallers(b *bench, rec *obs.SpanRecorder) error {
	for _, st := range b.streams {
		svc := s.primaries[st.group]
		if rec != nil {
			s.callers = append(s.callers, tracedServiceCaller(svc, rec))
		} else {
			s.callers = append(s.callers, svc.Submit)
		}
	}
	return nil
}

// tracedServiceCaller submits with a span per call, opened and finished
// by the load generator around the service call.
func tracedServiceCaller(svc *serve.Service, rec *obs.SpanRecorder) caller {
	var sp obs.Span
	return func(j job.Job) (online.Decision, error) {
		sp = obs.Span{JobID: int64(j.ID), Start: rec.Now()}
		dec, err := svc.SubmitSpan(j, &sp)
		rec.Finish(&sp)
		return dec, err
	}
}

func (s *stack) stubCallers(b *bench) error {
	srv, err := netserve.Serve(&stubAdmitter{b: b}, "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.servers = append(s.servers, srv)
	cl, err := netserve.Dial(srv.Addr().String())
	if err != nil {
		return err
	}
	s.clients = append(s.clients, cl)
	for range b.streams {
		s.callers = append(s.callers, cl.Submit)
	}
	return nil
}

// serveDaemon puts a netserve server (loadmaxd's defaults) in front of svc.
func (s *stack) serveDaemon(svc *serve.Service, reg *obs.Registry, rec *obs.SpanRecorder) (*netserve.Server, error) {
	opts := []netserve.ServerOption{netserve.WithServerMetrics(reg)}
	if rec != nil {
		opts = append(opts, netserve.WithServerSpans(rec))
	}
	srv, err := netserve.Serve(svc, "127.0.0.1:0", opts...)
	if err != nil {
		return nil, err
	}
	s.servers = append(s.servers, srv)
	return srv, nil
}

// daemonCallers serves every group's service and dials one connection
// per daemon; on a single-group workload that is the load generator's
// only connection.
func (s *stack) daemonCallers(b *bench, tr tracing) error {
	for g, svc := range s.primaries {
		srv, err := s.serveDaemon(svc, s.regs[g], tr.backend)
		if err != nil {
			return err
		}
		cl, err := netserve.Dial(srv.Addr().String())
		if err != nil {
			return err
		}
		s.clients = append(s.clients, cl)
	}
	for _, st := range b.streams {
		s.callers = append(s.callers, s.clients[st.group].Submit)
	}
	return nil
}

// gatewayCallers serves every backend, fronts them with a gateway
// (loadmaxgw's defaults) served over netserve, and dials it once.
func (s *stack) gatewayCallers(b *bench, tr tracing) error {
	specs := make([]gateway.BackendSpec, len(s.primaries))
	for g, svc := range s.primaries {
		srv, err := s.serveDaemon(svc, s.regs[g], tr.backend)
		if err != nil {
			return err
		}
		specs[g].Primary = srv.Addr().String()
	}
	for g, svc := range s.standbys {
		srv, err := s.serveDaemon(svc, s.sbRegs[g], nil)
		if err != nil {
			return err
		}
		specs[g].Standby = srv.Addr().String()
	}
	s.gwReg = obs.NewRegistry()
	// The mirror queue holds a round's every job, so the standby's lag
	// can never reach the bound at which the gateway sheds: whether a
	// job is shed would otherwise depend on how the host schedules the
	// standby. The round's timed pass waits for the lag to drain instead.
	gwOpts := []gateway.Option{
		gateway.WithRouter(b.gr), gateway.WithMetrics(s.gwReg), gateway.WithMirrorDepth(b.c.timed),
	}
	srvOpts := []netserve.ServerOption{netserve.WithServerMetrics(s.gwReg)}
	if tr.front != nil {
		gwOpts = append(gwOpts, gateway.WithSpans(tr.front))
		srvOpts = append(srvOpts, netserve.WithServerSpans(tr.front))
	}
	gw, err := gateway.New(specs, gwOpts...)
	if err != nil {
		return err
	}
	s.gw = gw
	front, err := netserve.Serve(gw, "127.0.0.1:0", srvOpts...)
	if err != nil {
		return err
	}
	s.front = front
	cl, err := netserve.Dial(front.Addr().String())
	if err != nil {
		return err
	}
	s.clients = append(s.clients, cl)
	for range b.streams {
		s.callers = append(s.callers, cl.Submit)
	}
	return nil
}

// close tears the stack down front to back: clients, the front server,
// the gateway (which flushes every mirror), backend servers, services.
func (s *stack) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, cl := range s.clients {
		keep(cl.Close())
	}
	if s.front != nil {
		keep(s.front.Close())
	}
	if s.gw != nil {
		keep(s.gw.Close())
	}
	for _, srv := range s.servers {
		keep(srv.Close())
	}
	for _, svc := range s.primaries {
		keep(svc.Close())
	}
	for _, svc := range s.standbys {
		keep(svc.Close())
	}
	return first
}

// removeDirs deletes the round's fixture copies.
func (s *stack) removeDirs() error {
	for _, d := range s.dirs {
		if err := os.RemoveAll(d); err != nil {
			return err
		}
	}
	return nil
}

// stubAdmitter answers every job with its reference decision and no
// other work, so the wire rung measures netserve alone.
type stubAdmitter struct{ b *bench }

func (a *stubAdmitter) Shards() int             { return shards }
func (a *stubAdmitter) Machines() int           { return machines }
func (a *stubAdmitter) Eps() float64            { return eps }
func (a *stubAdmitter) AdmissionPolicy() string { return a.b.builder.Spec }

func (a *stubAdmitter) SubmitSpan(j job.Job, _ *obs.Span) (online.Decision, error) {
	return a.b.expected(j)
}

func (a *stubAdmitter) SubmitBatchSpan(jobs []job.Job, _ *obs.Span) []serve.BatchResult {
	out := make([]serve.BatchResult, len(jobs))
	for i, j := range jobs {
		out[i].Dec, out[i].Err = a.b.expected(j)
	}
	return out
}
