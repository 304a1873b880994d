package policy

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"loadmax/internal/job"
	"loadmax/internal/online"
	"loadmax/internal/workload"
)

// lockstep feeds inst to the indexed DeltaCommit and the reference
// implementation side by side. Every decision must be identical, and
// every `every` jobs (and at the end) the clock, Pending, TotalLoad and
// the exported state bytes must be too.
func lockstep(t *testing.T, name string, got *DeltaCommit, ref *refDeltaCommit, inst []job.Job, every int) {
	t.Helper()
	for i, j := range inst {
		dg, dr := got.Submit(j), ref.Submit(j)
		if !online.SameDecision(dg, dr) {
			t.Fatalf("%s: job #%d %v: indexed %+v, reference %+v", name, i, j, dg, dr)
		}
		if (i+1)%every == 0 || i == len(inst)-1 {
			sameDeltaCommitState(t, fmt.Sprintf("%s after job #%d", name, i), got, ref)
		}
	}
}

func sameDeltaCommitState(t *testing.T, where string, got *DeltaCommit, ref *refDeltaCommit) {
	t.Helper()
	if g, r := got.Now(), ref.Now(); g != r {
		t.Fatalf("%s: clock %g, reference %g", where, g, r)
	}
	if g, r := got.Pending(), ref.Pending(); g != r {
		t.Fatalf("%s: pending %d, reference %d", where, g, r)
	}
	if g, r := got.TotalLoad(), ref.TotalLoad(); math.Float64bits(g) != math.Float64bits(r) {
		t.Fatalf("%s: total load %v, reference %v", where, g, r)
	}
	sg, errG := got.ExportState()
	sr, errR := ref.ExportState()
	if (errG != nil) != (errR != nil) {
		t.Fatalf("%s: export errors differ: indexed %v, reference %v", where, errG, errR)
	}
	if errG == nil && (sg.Policy != sr.Policy || !bytes.Equal(sg.Blob, sr.Blob)) {
		t.Fatalf("%s: exported states differ:\n  indexed:   %s\n  reference: %s", where, sg.Blob, sr.Blob)
	}
}

func newPair(t *testing.T, m int, delta float64) (*DeltaCommit, *refDeltaCommit) {
	t.Helper()
	d, err := NewDeltaCommit(m, delta)
	if err != nil {
		t.Fatal(err)
	}
	return d, newRefDeltaCommit(m, delta)
}

var lockstepDeltas = []float64{0.25, 0.5, 1}

// TestDeltaCommitMatchesReference is the exactness oracle for the
// placement index: every workload family at five seeds, on one, three
// and sixty-four machines, at each δ of the arena grid.
func TestDeltaCommitMatchesReference(t *testing.T) {
	for _, m := range []int{1, 3, 64} {
		for _, delta := range lockstepDeltas {
			for _, f := range workload.Families {
				for seed := int64(1); seed <= 5; seed++ {
					n := 300
					if m == 64 {
						n = 1500
					}
					inst := f.Gen(workload.Spec{N: n, Eps: 0.1, Load: 1.5, M: m, Seed: seed})
					got, ref := newPair(t, m, delta)
					lockstep(t, fmt.Sprintf("m=%d δ=%g %s seed=%d", m, delta, f.Name, seed), got, ref, inst, 25)
				}
			}
		}
	}
}

// edgeInstance draws jobs whose times sit on a coarse grid perturbed by
// amounts at and below job.TimeEps, with zero, 1e-14 and ordinary
// processing times and zero or near-zero slack, so placements land
// within tolerance of their neighbours and some timelines lose their
// End order (the index's fallback).
func edgeInstance(seed int64, n int) []job.Job {
	rng := rand.New(rand.NewSource(seed))
	pert := []float64{0, 1e-13, -1e-13, 1e-14, -1e-14, 5e-13}
	procs := []float64{0, 1e-14, 1e-13, 0.5, 1, 2}
	slacks := []float64{0, 0, 1e-13, 1e-14, 0.5, 3}
	inst := make([]job.Job, 0, n)
	t := 0.0
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			t += 0.5 * float64(rng.Intn(3))
		}
		r := t + pert[rng.Intn(len(pert))]
		if r < 0 {
			r = 0
		}
		p := procs[rng.Intn(len(procs))]
		inst = append(inst, job.Job{ID: i, Release: r, Proc: p, Deadline: r + p + slacks[rng.Intn(len(slacks))]})
	}
	return inst
}

// TestDeltaCommitMatchesReferenceEdges drives the tolerance corners:
// release/processing ties, zero and 1e-14 processing times, and the
// overlap that breaks End order — decisions and states must still match
// the reference exactly, through the fallback and back.
func TestDeltaCommitMatchesReferenceEdges(t *testing.T) {
	fellBack := false
	for _, m := range []int{1, 3, 64} {
		for _, delta := range lockstepDeltas {
			for seed := int64(1); seed <= 5; seed++ {
				got, ref := newPair(t, m, delta)
				inst := edgeInstance(seed, 600)
				for i, j := range inst {
					dg, dr := got.Submit(j), ref.Submit(j)
					if !online.SameDecision(dg, dr) {
						t.Fatalf("m=%d δ=%g seed=%d job #%d %v: indexed %+v, reference %+v", m, delta, seed, i, j, dg, dr)
					}
					fellBack = fellBack || !got.endsSorted
					if i%10 == 9 {
						sameDeltaCommitState(t, fmt.Sprintf("m=%d δ=%g seed=%d job #%d", m, delta, seed, i), got, ref)
					}
				}
			}
		}
	}
	if !fellBack {
		t.Fatal("no edge stream ever broke End order; the fallback went unexercised")
	}

	// Ties: identical jobs in release groups.
	for _, m := range []int{1, 3, 64} {
		for _, delta := range lockstepDeltas {
			ties := make([]job.Job, 400)
			for i := range ties {
				r := float64(i / 16)
				ties[i] = job.Job{ID: i, Release: r, Proc: 1, Deadline: r + 2.5}
			}
			got, ref := newPair(t, m, delta)
			lockstep(t, fmt.Sprintf("ties m=%d δ=%g", m, delta), got, ref, ties, 16)
		}
	}
}

// TestDeltaCommitMatchesReferenceHostile feeds inputs the serving layer
// never produces — out-of-order releases, negative, NaN and infinite
// fields — and requires the indexed policy to decide them exactly as the
// reference does.
func TestDeltaCommitMatchesReferenceHostile(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	hostile := []job.Job{
		{ID: 0, Release: 0, Proc: 1, Deadline: 10},
		{ID: 1, Release: 0.5, Proc: 2, Deadline: 9},
		{ID: 2, Release: 0.25, Proc: 1, Deadline: 3}, // out of order
		{ID: 3, Release: 1, Proc: -1, Deadline: 4},
		{ID: 4, Release: 1, Proc: nan, Deadline: 4},
		{ID: 5, Release: 1, Proc: 1, Deadline: nan},
		{ID: 6, Release: nan, Proc: 1, Deadline: 5},
		{ID: 7, Release: 1, Proc: 1, Deadline: inf},
		{ID: 8, Release: 1, Proc: inf, Deadline: inf},
		{ID: 9, Release: -3, Proc: 1, Deadline: 6},
		{ID: 10, Release: 2, Proc: 0.5, Deadline: 3},
		{ID: 11, Release: 2, Proc: 1, Deadline: -inf},
		{ID: 12, Release: 3, Proc: 1, Deadline: 30},
	}
	for _, m := range []int{1, 3} {
		for _, delta := range lockstepDeltas {
			got, ref := newPair(t, m, delta)
			for i, j := range hostile {
				dg, dr := got.Submit(j), ref.Submit(j)
				if !online.SameDecision(dg, dr) {
					t.Fatalf("m=%d δ=%g job #%d %v: indexed %+v, reference %+v", m, delta, i, j, dg, dr)
				}
				if g, r := got.Pending(), ref.Pending(); g != r {
					t.Fatalf("m=%d δ=%g job #%d: pending %d, reference %d", m, delta, i, g, r)
				}
			}
		}
	}
}

// TestDeltaCommitMatchesReferenceAcrossImport checks the index is
// rebuilt exactly from an imported state: both implementations import
// the same mid-stream checkpoint and then decide the rest in lockstep.
func TestDeltaCommitMatchesReferenceAcrossImport(t *testing.T) {
	for _, delta := range lockstepDeltas {
		inst := workload.Poisson(workload.Spec{N: 1200, Eps: 0.1, Load: 1.5, M: 64, Seed: 7})
		src, err := NewDeltaCommit(64, delta)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range inst[:600] {
			src.Submit(j)
		}
		st, err := src.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		got, ref := newPair(t, 64, delta)
		if err := got.ImportState(st); err != nil {
			t.Fatal(err)
		}
		if err := ref.ImportState(st); err != nil {
			t.Fatal(err)
		}
		sameDeltaCommitState(t, fmt.Sprintf("δ=%g after import", delta), got, ref)
		lockstep(t, fmt.Sprintf("δ=%g after import", delta), got, ref, inst[600:], 50)
		got.Reset()
		ref.Reset()
		lockstep(t, fmt.Sprintf("δ=%g after reset", delta), got, ref, inst[:300], 50)
	}
}

// TestDeltaCommitReimportsToleratedOverlap is the regression for a
// state ExportState wrote that ImportState refused: placement accepts a
// neighbour overlap within job.TimeEps, so the import check must too.
func TestDeltaCommitReimportsToleratedOverlap(t *testing.T) {
	d, err := NewDeltaCommit(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	first := d.Submit(job.Job{ID: 0, Release: 0, Proc: 1, Deadline: 10})
	second := d.Submit(job.Job{ID: 1, Release: 1 - 1e-13, Proc: 1, Deadline: 10})
	if !first.Accepted || !second.Accepted || second.Start >= 1 {
		t.Fatalf("repro no longer overlaps: %+v, %+v", first, second)
	}
	st, err := d.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	back, err := NewDeltaCommit(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.ImportState(st); err != nil {
		t.Fatalf("re-import of exported state: %v", err)
	}
	again, err := back.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Blob, again.Blob) {
		t.Fatalf("export∘import changed the state:\n  %s\n  %s", st.Blob, again.Blob)
	}
	// An overlap beyond tolerance is still refused.
	bad := bytes.Replace(st.Blob, []byte(`"start":0.9999999999999`), []byte(`"start":0.99`), 1)
	if bytes.Equal(bad, st.Blob) {
		t.Fatalf("state blob lacks the expected second start: %s", st.Blob)
	}
	if err := back.ImportState(State{Policy: st.Policy, Blob: bad}); err == nil {
		t.Fatal("import accepted slots overlapping beyond tolerance")
	}
}
