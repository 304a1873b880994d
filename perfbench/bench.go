package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"loadmax/internal/job"
	"loadmax/internal/obs"
	"loadmax/internal/online"
	"loadmax/internal/policy"
	"loadmax/internal/serve"
)

// bench is one workload prepared for a seed: its streams, the reference
// decisions every round is checked against, and the durable fixture.
type bench struct {
	c       config
	builder policy.Builder
	gr, sr  serve.Policy
	timed   []job.Job
	streams []*stream
	exp     []online.Decision // reference decision per timed job, by ID-base
	massRef float64
	work    string
	fix     *fixture
	got     []online.Decision // decisions of the current round, by ID-base
}

// prepare generates the instance, partitions it into per-shard streams,
// computes the sequential reference and builds the fixture under work.
func prepare(c config, seed int64, work string) (*bench, error) {
	builder, err := policy.Parse(c.policy)
	if err != nil {
		return nil, err
	}
	inst := instance(c, seed)
	gr, sr := routers()
	b := &bench{
		c: c, builder: builder, gr: gr, sr: sr,
		timed:   inst[c.fixture:],
		streams: partition(inst, c.fixture, gr, sr, c.groups),
		work:    work,
		got:     make([]online.Decision, c.timed),
	}
	if b.exp, b.massRef, err = reference(builder, b.streams, b.timed); err != nil {
		return nil, err
	}
	if b.fix, err = buildFixture(filepath.Join(work, "fixture"), c, builder, inst[:c.fixture], gr, sr); err != nil {
		return nil, err
	}
	return b, nil
}

// expected returns the reference decision of a timed job.
func (b *bench) expected(j job.Job) (online.Decision, error) {
	i := j.ID - b.timed[0].ID
	if i < 0 || i >= len(b.exp) {
		return online.Decision{}, fmt.Errorf("job %d is not a timed job", j.ID)
	}
	return b.exp[i], nil
}

// drained is what one timed pass over the streams measured.
type drained struct {
	wall  time.Duration
	lat   []int64 // ns of each answered call
	ids   []int   // job ID of each answered call, parallel to lat
	calls int     // calls made, retries included
	ok    int     // calls answered with a verdict
	err   error   // first error that was not a shed
}

// maxSheds bounds consecutive shed retries of one job before the stream
// gives up; shedBackoff is the pause before each retry, as a client
// backs off when told the server is overloaded.
const (
	maxSheds    = 10_000
	shedBackoff = 500 * time.Microsecond
)

// drive runs one closed-loop goroutine per stream, each with one call in
// flight through the stream's caller, and records every decision into
// got. A shed job is retried, after a pause, before the stream moves on.
func drive(streams []*stream, callers []caller, got []online.Decision, base int) drained {
	per := make([]drained, len(streams))
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	for i, st := range streams {
		ready.Add(1)
		done.Add(1)
		go func(d *drained, st *stream, call caller) {
			defer done.Done()
			d.lat = make([]int64, 0, len(st.timed))
			d.ids = make([]int, 0, len(st.timed))
			ready.Done()
			<-start
			sheds := 0
			for k := 0; k < len(st.timed); {
				j := st.timed[k]
				t0 := time.Now()
				dec, err := call(j)
				ns := time.Since(t0).Nanoseconds()
				d.calls++
				if err != nil {
					if !isShed(err) {
						d.err = fmt.Errorf("stream g%d/s%d job %d: %w", st.group, st.shard, j.ID, err)
						return
					}
					if sheds++; sheds > maxSheds {
						d.err = fmt.Errorf("stream g%d/s%d: job %d shed %d times in a row", st.group, st.shard, j.ID, sheds)
						return
					}
					time.Sleep(shedBackoff)
					continue
				}
				sheds = 0
				got[j.ID-base] = dec
				d.ok++
				d.lat = append(d.lat, ns)
				d.ids = append(d.ids, j.ID)
				k++
			}
		}(&per[i], st, callers[i])
	}
	ready.Wait()
	t0 := time.Now()
	close(start)
	done.Wait()
	total := drained{wall: time.Since(t0)}
	for _, d := range per {
		total.lat = append(total.lat, d.lat...)
		total.ids = append(total.ids, d.ids...)
		total.calls += d.calls
		total.ok += d.ok
		if total.err == nil {
			total.err = d.err
		}
	}
	return total
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// counters are cumulative program counters a round reads before and
// after its timed phase.
type counters struct {
	shardJobs  []int64 // decisions per primary shard
	batches    int64   // shard drains across primaries
	walRecords int64
	walBytes   int64
	fsyncs     int64
	rxFrames   int64 // frames the primaries' servers read
}

func (s *stack) counters() counters {
	var c counters
	for i, svc := range s.primaries {
		for _, sh := range svc.Snapshot() {
			c.shardJobs = append(c.shardJobs, sh.Submitted)
			c.batches += sh.Batches
		}
		reg := s.regs[i]
		c.walRecords += reg.Counter("serve_wal_records_total").Value()
		c.walBytes += reg.Counter("serve_wal_bytes_total").Value()
		c.fsyncs += reg.Histogram("serve_wal_fsync_seconds", nil).Count()
		c.rxFrames += reg.Counter("netserve_rx_frames_total").Value()
	}
	return c
}

func (c counters) minus(o counters) counters {
	d := counters{
		batches: c.batches - o.batches, walRecords: c.walRecords - o.walRecords,
		walBytes: c.walBytes - o.walBytes, fsyncs: c.fsyncs - o.fsyncs, rxFrames: c.rxFrames - o.rxFrames,
	}
	for i := range c.shardJobs {
		d.shardJobs = append(d.shardJobs, c.shardJobs[i]-o.shardJobs[i])
	}
	return d
}

// roundResult is one round: set-up, the timed pass, and what the
// program's counters moved by during it.
type roundResult struct {
	drained
	setup   time.Duration
	restore time.Duration // serve.Restore alone, summed over backends
	cpu     time.Duration
	steal   float64 // % of machine CPU time the host stole during the timed pass
	alloc   uint64  // bytes allocated during the timed pass
	heap    uint64  // live heap after a forced GC at its end
	delta   counters
	lag     []float64 // mirror-lag samples (gateway rungs, when sampled)
}

// durable reports whether rung r restores the fixture.
func durable(r rung) bool {
	return r == rServeDurable || r == rDaemon || r == rGateway || r == rGatewayMirror
}

// lagSampleEvery is the mirror-lag sampling period.
const lagSampleEvery = time.Millisecond

// round brings rung r up (restoring fresh fixture copies for durable
// rungs), replays every stream once, tears the stack down and checks
// the outputs: each decision against the sequential reference, the
// accepted mass bit for bit, the restored record counts and, behind a
// gateway, zero mirror divergence.
func (b *bench) round(r rung, tr tracing, sampleLag bool) (*roundResult, error) {
	var dirs []string
	if durable(r) {
		var err error
		if dirs, err = b.copyFixture(r); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	t0 := time.Now()
	s, err := b.bringUp(r, dirs, tr)
	setup := time.Since(t0)
	if err != nil {
		removeAll(dirs)
		return nil, fmt.Errorf("%s bring-up: %w", rungNames[r], err)
	}
	rr := &roundResult{setup: setup, restore: s.restore}
	checkErr := b.checkRestore(r, s)

	before := s.counters()
	clear(b.got)
	var stop chan struct{}
	var sampler sync.WaitGroup
	if sampleLag && s.gwReg != nil {
		stop = make(chan struct{})
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			g := s.gwReg.Gauge("gateway_mirror_lag_jobs")
			tk := time.NewTicker(lagSampleEvery)
			defer tk.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tk.C:
					rr.lag = append(rr.lag, g.Value())
				}
			}
		}()
	}
	// Start the timed pass with the set-up's garbage collected, so a
	// collection it left behind does not land in the pass.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, cpu0, host0 := ms.TotalAlloc, cpuTime(), hostCPU()
	rr.drained = drive(b.streams, s.callers, b.got, b.timed[0].ID)
	if s.gwReg != nil {
		// A job is served once its standby holds it too.
		t1 := time.Now()
		waitMirrored(s.gwReg)
		rr.wall += time.Since(t1)
	}
	rr.cpu = cpuTime() - cpu0
	rr.steal = hostCPU().stealPct(host0)
	runtime.ReadMemStats(&ms)
	rr.alloc = ms.TotalAlloc - alloc0
	if stop != nil {
		close(stop)
		sampler.Wait()
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	rr.heap = ms.HeapAlloc
	rr.delta = s.counters().minus(before)

	closeErr := s.close()
	removeErr := s.removeDirs()
	if checkErr == nil {
		checkErr = b.checkRound(rr)
	}
	if checkErr == nil {
		checkErr = b.checkMirror(s)
	}
	switch {
	case checkErr != nil:
		return nil, &checkError{fmt.Errorf("%s round: %w", rungNames[r], checkErr)}
	case closeErr != nil:
		return nil, fmt.Errorf("%s round: close: %w", rungNames[r], closeErr)
	case removeErr != nil:
		return nil, removeErr
	}
	return rr, nil
}

// checkRestore requires every restored backend to have replayed exactly
// its group's fixture records.
func (b *bench) checkRestore(r rung, s *stack) error {
	if !durable(r) {
		return nil
	}
	check := func(role string, regs []*obs.Registry) error {
		for g, reg := range regs {
			if n := reg.Counter("serve_recovery_records_replayed").Value(); n != int64(b.fix.records[g]) {
				return fmt.Errorf("group %d %s replayed %d records, fixture holds %d", g, role, n, b.fix.records[g])
			}
		}
		return nil
	}
	if err := check("primary", s.regs); err != nil {
		return err
	}
	return check("standby", s.sbRegs)
}

// checkRound compares the round's decisions with the reference.
func (b *bench) checkRound(rr *roundResult) error {
	if rr.err != nil {
		return rr.err
	}
	for i, d := range b.got {
		if !online.SameDecision(d, b.exp[i]) {
			return fmt.Errorf("job %d: got %v, sequential replay gives %v", b.timed[i].ID, d, b.exp[i])
		}
	}
	if m := massFrac(b.timed, b.got); m != b.massRef {
		return fmt.Errorf("accepted mass fraction %v, sequential replay gives %v", m, b.massRef)
	}
	return nil
}

// checkMirror requires, after the gateway has flushed its mirrors, no
// divergence and every standby's accepted mass equal to its primary's.
func (b *bench) checkMirror(s *stack) error {
	if s.gwReg != nil {
		if n := s.gwReg.Counter("gateway_mirror_divergence_total").Value(); n != 0 {
			return fmt.Errorf("gateway counted %d mirror divergences", n)
		}
	}
	for g, sb := range s.standbys {
		if p, m := s.primaries[g].AcceptedMass(), sb.AcceptedMass(); p != m {
			return fmt.Errorf("group %d standby accepted mass %v, primary %v", g, m, p)
		}
	}
	return nil
}

func removeAll(dirs []string) {
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// waitMirrored returns once every decided job has been applied to its
// standby.
func waitMirrored(reg *obs.Registry) {
	g := reg.Gauge("gateway_mirror_lag_jobs")
	for g.Value() > 0 {
		time.Sleep(20 * time.Microsecond)
	}
}
