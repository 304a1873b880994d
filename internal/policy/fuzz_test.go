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

// importTarget picks the topology a fuzzed δ-commit state is imported
// into: its own m and δ when they form a valid topology of at most 64
// machines (so the bytes reach the slot checks), and m=2, δ=0.5
// otherwise (so they exercise the mismatch checks).
func importTarget(blob []byte) (m int, delta float64) {
	var hdr struct {
		M     int     `json:"m"`
		Delta float64 `json:"delta"`
	}
	if json.Unmarshal(blob, &hdr) == nil && hdr.M >= 1 && hdr.M <= 64 && hdr.Delta > 0 && hdr.Delta <= 1 {
		return hdr.M, hdr.Delta
	}
	return 2, 0.5
}

// FuzzDeltaCommitImportState throws arbitrary bytes at
// DeltaCommit.ImportState, the decoder a WAL snapshot is read through.
// For every input: no panic, and allocation bounded by the input size.
// For every accepted input: export∘import∘export is the identity, and
// the indexed policy and the reference implementation, each importing
// the bytes, decide a follow-up stream identically and end in the same
// state.
func FuzzDeltaCommitImportState(f *testing.F) {
	for _, seed := range importSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		m, delta := importTarget(blob)
		d, err := NewDeltaCommit(m, delta)
		if err != nil {
			t.Fatal(err)
		}
		st := State{Policy: d.Name(), Blob: blob}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = d.ImportState(st)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(256*len(blob)+1<<20); grew > limit {
			t.Fatalf("import of %d bytes allocated %d bytes (limit %d)", len(blob), grew, limit)
		}
		ref := newRefDeltaCommit(m, delta)
		if refErr := ref.ImportState(st); (err == nil) != (refErr == nil) {
			t.Fatalf("import verdicts differ: indexed %v, reference %v", err, refErr)
		}
		if err != nil {
			return
		}

		e1, err := d.ExportState()
		if err != nil {
			t.Fatalf("export after import: %v", err)
		}
		again, _ := NewDeltaCommit(m, delta)
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
