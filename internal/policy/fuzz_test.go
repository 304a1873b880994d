package policy

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"runtime"
	"testing"

	"loadmax/internal/job"
	"loadmax/internal/online"
)

// stateHeader is the topology a fuzzed state claims for itself.
type stateHeader struct {
	M     int     `json:"m"`
	Eps   float64 `json:"eps"`   // Threshold
	Delta float64 `json:"delta"` // δ-commitment
}

// importTarget picks the topology a fuzzed state is imported into: its
// own m and parameter (ε or δ, as param reads it) when they form a valid
// topology of at most 64 machines, so the bytes reach the state checks;
// m=2 and 0.5 otherwise, so they exercise the mismatch checks.
func importTarget(blob []byte, param func(stateHeader) float64) (m int, p float64) {
	var hdr stateHeader
	if json.Unmarshal(blob, &hdr) == nil && hdr.M >= 1 && hdr.M <= 64 {
		if p := param(hdr); p > 0 && p <= 1 {
			return hdr.M, p
		}
	}
	return 2, 0.5
}

// importRoundTrip imports blob, stamped with spec, into a fresh policy
// and checks what every state decoder owes a WAL snapshot: no panic,
// allocation bounded by the input size, and, for an accepted input,
// export∘import∘export is the identity. It returns the policy and the
// import's verdict.
func importRoundTrip(t *testing.T, spec string, blob []byte, fresh func() AdmissionPolicy) (AdmissionPolicy, error) {
	t.Helper()
	p := fresh()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := p.ImportState(State{Policy: spec, Blob: blob})
	runtime.ReadMemStats(&after)
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(256*len(blob)+1<<20); grew > limit {
		t.Fatalf("import of %d bytes allocated %d bytes (limit %d)", len(blob), grew, limit)
	}
	if err != nil {
		return p, err
	}
	e1, err := p.ExportState()
	if err != nil {
		t.Fatalf("export after import: %v", err)
	}
	again := fresh()
	if err := again.ImportState(e1); err != nil {
		t.Fatalf("re-import of an exported state: %v\n%s", err, e1.Blob)
	}
	e2, err := again.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e1.Blob, e2.Blob) {
		t.Fatalf("export∘import∘export is not the identity:\n  %s\n  %s", e1.Blob, e2.Blob)
	}
	return p, nil
}

// FuzzDeltaCommitImportState throws arbitrary bytes at
// DeltaCommit.ImportState, the decoder a WAL snapshot is read through.
// Beyond importRoundTrip's properties, for every accepted input the
// indexed policy and the reference implementation, each importing the
// bytes, decide a follow-up stream identically and end in the same
// state.
func FuzzDeltaCommitImportState(f *testing.F) {
	for _, seed := range importSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		m, delta := importTarget(blob, func(h stateHeader) float64 { return h.Delta })
		fresh := func() AdmissionPolicy {
			d, err := NewDeltaCommit(m, delta)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		spec := DeltaCommitSpec(delta)
		p, err := importRoundTrip(t, spec, blob, fresh)
		ref := newRefDeltaCommit(m, delta)
		if refErr := ref.ImportState(State{Policy: spec, Blob: blob}); (err == nil) != (refErr == nil) {
			t.Fatalf("import verdicts differ: indexed %v, reference %v", err, refErr)
		}
		if err != nil {
			return
		}
		d := p.(*DeltaCommit)

		// A follow-up stream around the imported clock, seeded by the
		// input so each state meets its own jobs.
		rng := rand.New(rand.NewSource(int64(len(blob))))
		t0 := d.Now()
		for i := 0; i < 40; i++ {
			r := t0 + rng.Float64()*float64(i)
			p := rng.ExpFloat64() * 2
			j := job.Job{ID: 1<<20 + i, Release: r, Proc: p, Deadline: r + p*(1+rng.Float64()*3)}
			dg, dr := d.Submit(j), ref.Submit(j)
			if !online.SameDecision(dg, dr) {
				t.Fatalf("job #%d %v after import: indexed %+v, reference %+v", i, j, dg, dr)
			}
		}
		sameDeltaCommitState(t, "after the follow-up stream", d, ref)
	})
}

// FuzzThresholdImportState throws arbitrary bytes at
// Threshold.ImportState, the decoder a Threshold shard's snapshot is
// read through: importRoundTrip's properties for every input. The
// malformed seeds live in testdata/fuzz/FuzzThresholdImportState.
func FuzzThresholdImportState(f *testing.F) {
	for _, seed := range exportSeeds(f, func() AdmissionPolicy {
		th, err := NewThreshold(3, 0.25)
		if err != nil {
			f.Fatal(err)
		}
		return th
	}) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		m, eps := importTarget(blob, func(h stateHeader) float64 { return h.Eps })
		importRoundTrip(t, SpecThreshold, blob, func() AdmissionPolicy { //nolint:errcheck // a refusal is a valid outcome
			th, err := NewThreshold(m, eps)
			if err != nil {
				t.Fatal(err)
			}
			return th
		})
	})
}

// FuzzGreedyImportState throws arbitrary bytes at Greedy.ImportState:
// importRoundTrip's properties for every input. The malformed seeds
// live in testdata/fuzz/FuzzGreedyImportState.
func FuzzGreedyImportState(f *testing.F) {
	for _, seed := range exportSeeds(f, func() AdmissionPolicy {
		g, _ := NewGreedy(3)
		return g
	}) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		m, _ := importTarget(blob, func(stateHeader) float64 { return 1 })
		importRoundTrip(t, SpecGreedy, blob, func() AdmissionPolicy { //nolint:errcheck // a refusal is a valid outcome
			g, err := NewGreedy(m)
			if err != nil {
				t.Fatal(err)
			}
			return g
		})
	})
}

// exportSeeds returns the states a fresh policy exports before and
// after a busy stream.
func exportSeeds(tb testing.TB, fresh func() AdmissionPolicy) [][]byte {
	var seeds [][]byte
	p := fresh()
	for _, n := range []int{0, 30} {
		for i := 0; i < n; i++ {
			r := float64(i) * 0.4
			p.Submit(job.Job{ID: i, Release: r, Proc: 1 + float64(i%3), Deadline: r + 4 + float64(i%5)})
		}
		st, err := p.ExportState()
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, st.Blob)
	}
	return seeds
}

// importSeeds returns states real runs export, the tolerated-overlap
// repro that import once refused among them. The malformed seeds live
// in testdata/fuzz/FuzzDeltaCommitImportState, next to a frozen copy of
// the repro.
func importSeeds(tb testing.TB) [][]byte {
	export := func(d *DeltaCommit, jobs []job.Job) []byte {
		for _, j := range jobs {
			d.Submit(j)
		}
		st, err := d.ExportState()
		if err != nil {
			tb.Fatal(err)
		}
		return st.Blob
	}
	overlap, _ := NewDeltaCommit(1, 1)
	busy, _ := NewDeltaCommit(3, 0.5)
	var jobs []job.Job
	for i := 0; i < 30; i++ {
		r := float64(i) * 0.4
		jobs = append(jobs, job.Job{ID: i, Release: r, Proc: 1 + float64(i%3), Deadline: r + 4 + float64(i%5)})
	}
	empty, _ := NewDeltaCommit(2, 0.25)
	return [][]byte{
		export(overlap, []job.Job{{ID: 0, Release: 0, Proc: 1, Deadline: 10}, {ID: 1, Release: 1 - 1e-13, Proc: 1, Deadline: 10}}),
		export(busy, jobs),
		export(empty, nil),
	}
}
