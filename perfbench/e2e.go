package main

import (
	"fmt"
	"os"
	"sort"
)

// e2eResult is the untraced run: the end-to-end metrics over every
// counted round.
type e2eResult struct {
	metrics map[string]float64
	samples map[string]int
	calls   int
	failed  int
}

// runE2E runs one uncounted warm-up round, then timed rounds of the
// workload's own path until their timed phases add up to seconds (and
// at least minRounds). Each round restores the fixture afresh and is
// checked before it counts. Every round replays the same calls, so the
// latency sample count is the same in each.
func runE2E(b *bench, seconds float64, minRounds int) (*e2eResult, error) {
	top := b.c.top
	if _, err := b.round(top, tracing{}, false); err != nil {
		return nil, err
	}
	var setup, cpu, alloc, heap []float64
	var timing []roundTiming
	out := &e2eResult{samples: map[string]int{}}
	ok, calls, latSamples := 0, 0, 0
	timed := 0.0
	for timed < seconds || len(timing) < minRounds {
		rr, err := b.round(top, tracing{}, false)
		if err != nil {
			return nil, err
		}
		timed += rr.wall.Seconds()
		latUs := nsToUs(rr.lat)
		t := roundTiming{steal: rr.steal, rate: jobsPerS(rr), p50: percentile(latUs, 0.5), p95: percentile(latUs, 0.95)}
		timing = append(timing, t)
		setup = append(setup, rr.setup.Seconds())
		cpu = append(cpu, float64(rr.cpu.Nanoseconds())/1e3/float64(rr.ok))
		alloc = append(alloc, float64(rr.alloc)/float64(rr.ok))
		heap = append(heap, float64(rr.heap)/(1<<20))
		calls += rr.calls
		ok += rr.ok
		latSamples = len(rr.lat)
		fmt.Fprintf(os.Stderr, "round %d: setup %.4fs, %.0f jobs/s, p50 %.1fus, p95 %.1fus, p99 %.1fus, cpu %.2fus/job, steal %.1f%%\n",
			len(timing), setup[len(setup)-1], t.rate, t.p50, t.p95, percentile(latUs, 0.99), cpu[len(cpu)-1], t.steal)
	}
	out.calls, out.failed = calls, calls-ok
	// Every metric is a median over rounds, so one round a host stall
	// hits does not move it. On a shared host such stalls can hit most
	// rounds of a run, and the tail most of all: the timing metrics are
	// therefore taken over the half of the rounds from which the host
	// stole the least CPU time. A change to the stack still moves them,
	// because it moves every round. The tail is reported at p95: the
	// p99 sits where the host's stalls are, and moved by a third between
	// runs of the same code; the traced run reports it.
	calm := calmest(timing, max(minRounds, (len(timing)+1)/2))
	var rate, p50, p95 []float64
	for _, t := range calm {
		rate, p50, p95 = append(rate, t.rate), append(p50, t.p50), append(p95, t.p95)
	}
	out.metrics = map[string]float64{
		"setup_s":            median(setup),
		"jobs_per_s":         median(rate),
		"verdict_p50_us":     median(p50),
		"verdict_p95_us":     median(p95),
		"ok_frac":            float64(ok) / float64(calls),
		"accepted_mass_frac": b.massRef,
		"cpu_us_per_job":     median(cpu),
		"alloc_b_per_job":    median(alloc),
		"live_heap_mb":       median(heap),
	}
	out.samples["rounds"] = len(timing)
	out.samples["rounds_timed_metrics"] = len(calm)
	out.samples["verdict_latency_per_round"] = latSamples
	out.samples["setup"] = len(setup)
	return out, nil
}

// roundTiming is what a round's timing metrics are built from.
type roundTiming struct {
	steal          float64 // % of machine CPU time the host stole during the pass
	rate, p50, p95 float64
}

// calmest returns the n rounds with the least steal, earlier rounds
// first among equals.
func calmest(rounds []roundTiming, n int) []roundTiming {
	sorted := append([]roundTiming(nil), rounds...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].steal < sorted[j].steal })
	return sorted[:min(n, len(sorted))]
}
