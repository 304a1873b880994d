package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"

	"loadmax/internal/job"
	"loadmax/internal/serve"
)

// small shrinks a workload to test size, keeping its topology and policy.
func small(c config) config {
	c.fixture, c.timed = 400, 600
	return c
}

func TestPartitionGivesEachShardOneOrderedStream(t *testing.T) {
	for _, c := range configs {
		c := small(c)
		t.Run(c.name, func(t *testing.T) {
			inst := instance(c, 7)
			gr, sr := routers()
			streams := partition(inst, c.fixture, gr, sr, c.groups)
			seen := map[[2]int]bool{}
			count := 0
			for _, st := range streams {
				key := [2]int{st.group, st.shard}
				if seen[key] {
					t.Fatalf("shard %v has more than one stream", key)
				}
				seen[key] = true
				jobs := append(append([]job.Job(nil), st.prefix...), st.timed...)
				for i, j := range jobs {
					if g, s := route(gr, sr, c.groups, j); g != st.group || s != st.shard {
						t.Fatalf("job %d routes to g%d/s%d but sits in stream g%d/s%d", j.ID, g, s, st.group, st.shard)
					}
					if i > 0 && j.Release < jobs[i-1].Release {
						t.Fatalf("stream %v out of release order at job %d", key, j.ID)
					}
				}
				for _, j := range st.prefix {
					if j.ID >= c.fixture {
						t.Fatalf("timed job %d in stream %v prefix", j.ID, key)
					}
				}
				count += len(jobs)
			}
			if count != len(inst) {
				t.Fatalf("streams hold %d jobs, instance has %d", count, len(inst))
			}
			// The service itself must route each group's jobs to the same
			// shards, in the same order.
			for g := 0; g < c.groups; g++ {
				svc, err := serve.New(shards, machines, eps, serve.WithPolicy(sr), serve.WithDecisionLog())
				if err != nil {
					t.Fatal(err)
				}
				var jobs []job.Job
				for _, j := range inst {
					if gi, _ := route(gr, sr, c.groups, j); gi == g {
						jobs = append(jobs, j)
					}
				}
				svc.SubmitBatch(jobs)
				svc.Close()
				for s := 0; s < shards; s++ {
					var want []job.Job
					for _, st := range streams {
						if st.group == g && st.shard == s {
							want = append(append(want, st.prefix...), st.timed...)
						}
					}
					got := svc.ShardStream(s)
					if len(got) != len(want) {
						t.Fatalf("group %d shard %d decided %d jobs, stream has %d", g, s, len(got), len(want))
					}
					for i := range got {
						if got[i].Job.ID != want[i].ID {
							t.Fatalf("group %d shard %d position %d: service saw job %d, stream has %d", g, s, i, got[i].Job.ID, want[i].ID)
						}
					}
				}
			}
		})
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.01, 1}, {0.5, 50}, {0.99, 99}, {1, 100}} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile([]float64{3}, 0.99); got != 3 {
		t.Errorf("percentile of one sample = %v, want 3", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) || !math.IsNaN(median(nil)) {
		t.Error("empty input must give NaN")
	}
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
}

func TestCalmestKeepsLeastStolenRounds(t *testing.T) {
	rounds := []roundTiming{{steal: 3, rate: 1}, {steal: 0, rate: 2}, {steal: 9, rate: 3}, {steal: 0, rate: 4}, {steal: 1, rate: 5}}
	got := calmest(rounds, 3)
	want := []float64{2, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("calmest kept %d rounds, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.rate != want[i] {
			t.Errorf("calmest[%d] = round with rate %v, want %v", i, r.rate, want[i])
		}
	}
	if n := len(calmest(rounds, 10)); n != len(rounds) {
		t.Errorf("calmest with n beyond the rounds kept %d, want all %d", n, len(rounds))
	}
}

func TestLadderSubtractionAndReconciliation(t *testing.T) {
	tm := map[rung]float64{
		rCore: 100, rPolicy: 120, rServeMem: 2000, rServeDurable: 150_000,
		rWireStub: 50_000, rDaemon: 260_000, rGateway: 500_000, rGatewayMirror: 600_000,
	}
	self := selfTimes(tm)
	for r, want := range map[rung]float64{
		rCore: 100, rPolicy: 20, rServeMem: 1880, rServeDurable: 148_000,
		rWireStub: 50_000, rDaemon: 110_000, rGateway: 240_000, rGatewayMirror: 100_000,
	} {
		if self[r] != want {
			t.Errorf("self[%s] = %v, want %v", rungNames[r], self[r], want)
		}
	}
	for _, tc := range []struct {
		top            rung
		e2e, sum, frac float64
	}{
		// In process, the chain telescopes to durable serve itself.
		{rServeDurable, 160_000, 150_000, 0.0625},
		// Over the wire, durable serve plus the stub wire leave the
		// daemon's interaction cost unattributed.
		{rDaemon, 250_000, 200_000, 0.2},
		// Behind the gateway, the hop and mirror add their self times.
		{rGatewayMirror, 680_000, 540_000, 140_000.0 / 680_000},
	} {
		sum, frac := reconcile(tm, tc.top, tc.e2e)
		if sum != tc.sum || math.Abs(frac-tc.frac) > 1e-12 {
			t.Errorf("reconcile(%s) = %v, %v; want %v, %v", rungNames[tc.top], sum, frac, tc.sum, tc.frac)
		}
	}
}

// TestEveryRungPassesItsChecks runs each rung once on a small gateway
// workload, which exercises every layer, and then shows that a wrong
// reference decision fails the round's check.
func TestEveryRungPassesItsChecks(t *testing.T) {
	c, err := configByName("gateway-mirror")
	if err != nil {
		t.Fatal(err)
	}
	b, err := prepare(small(c), 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for r := rServeMem; r <= rGatewayMirror; r++ {
		rr, err := b.round(r, tracing{backend: b.spanRecorder(), front: b.spanRecorder()}, r == rGatewayMirror)
		if err != nil {
			t.Fatalf("%s: %v", rungNames[r], err)
		}
		if rr.ok != b.c.timed || rr.ok != rr.calls {
			t.Fatalf("%s: %d of %d calls answered, want all %d jobs", rungNames[r], rr.ok, rr.calls, b.c.timed)
		}
	}
	b.exp[0].Accepted = !b.exp[0].Accepted
	_, err = b.round(rServeDurable, tracing{}, false)
	var ce *checkError
	if !errors.As(err, &ce) {
		t.Fatalf("a wrong reference decision gave %v, want a check failure", err)
	}
}

func TestFixtureBytesRepeat(t *testing.T) {
	c, err := configByName("rpc-durable")
	if err != nil {
		t.Fatal(err)
	}
	c = small(c)
	a, err := prepare(c, 5, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, err := prepare(c, 5, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if a.fix.checksum != b.fix.checksum || a.massRef != b.massRef {
		t.Fatalf("same seed gave fixtures %s/%s and mass %v/%v", a.fix.checksum, b.fix.checksum, a.massRef, b.massRef)
	}
	if a.fix.records[0] != c.fixture {
		t.Fatalf("fixture holds %d records, want %d", a.fix.records[0], c.fixture)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json's workloads and
// metric names and units in step with what the benchmark prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(configs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(configs))
	}
	for i, w := range spec.Workloads {
		if w.Name != configs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, configs[i].name)
		}
	}
	for _, tc := range []struct {
		kind string
		json []metric
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, e2eMetrics}, {"per_layer", spec.PerLayer, layerMetrics}} {
		if len(tc.json) != len(tc.defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", tc.kind, len(tc.json), len(tc.defs))
		}
		for i, m := range tc.json {
			if m.Name != tc.defs[i].name || m.Unit != tc.defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]", tc.kind, i, m.Name, m.Unit, tc.defs[i].name, tc.defs[i].unit)
			}
		}
	}
}
