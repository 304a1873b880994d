package policy

import (
	"fmt"
	"math"
	"sort"

	"loadmax/internal/job"
	"loadmax/internal/online"
)

// refDeltaCommit is the straightforward δ-commitment implementation the
// indexed DeltaCommit must agree with decision for decision: every
// Submit rewrites every slot of every machine in advance and scans
// every machine's whole timeline. It is kept only as the test oracle.
// Its ImportState shares the production overlap tolerance (a placement
// may overlap its neighbour by up to job.TimeEps), so the two accept the
// same states.
type refDeltaCommit struct {
	m     int
	delta float64
	now   float64
	// machines[i] is machine i's booked timeline, sorted by Start,
	// non-overlapping. Pending slots (Committed=false) are promised but
	// not yet bound; advance flips them at their trigger.
	machines [][]dcSlot
}

var _ AdmissionPolicy = (*refDeltaCommit)(nil)

func newRefDeltaCommit(m int, delta float64) *refDeltaCommit {
	return &refDeltaCommit{m: m, delta: delta, machines: make([][]dcSlot, m)}
}

// Name implements online.Scheduler; it returns the canonical spec.
func (d *refDeltaCommit) Name() string { return DeltaCommitSpec(d.delta) }

// Machines implements online.Scheduler.
func (d *refDeltaCommit) Machines() int { return d.m }

// Delta returns δ.
func (d *refDeltaCommit) Delta() float64 { return d.delta }

// Reset implements online.Scheduler.
func (d *refDeltaCommit) Reset() {
	d.now = 0
	for i := range d.machines {
		d.machines[i] = nil
	}
}

// Now implements AdmissionPolicy.
func (d *refDeltaCommit) Now() float64 { return d.now }

// Pending returns how many admitted jobs are still awaiting their
// commitment trigger.
func (d *refDeltaCommit) Pending() int {
	n := 0
	for _, slots := range d.machines {
		for _, s := range slots {
			if !s.Committed {
				n++
			}
		}
	}
	return n
}

// TotalLoad implements AdmissionPolicy: summed outstanding booked work,
// pending and committed alike (a promise is load).
func (d *refDeltaCommit) TotalLoad() float64 {
	var sum float64
	for _, slots := range d.machines {
		for _, s := range slots {
			if s.End <= d.now {
				continue
			}
			from := s.Start
			if from < d.now {
				from = d.now
			}
			sum += s.End - from
		}
	}
	return sum
}

// advance moves the clock to t, matures every pending slot whose
// trigger has passed, and prunes slots that ended entirely in the past
// (a pruned slot is always committed first: End ≥ τ + p > τ). Pruning
// never changes a future decision — placement only looks at intervals
// overlapping [now, ∞) — it just keeps timelines short.
func (d *refDeltaCommit) advance(t float64) {
	if t > d.now {
		d.now = t
	}
	for i, slots := range d.machines {
		keep := slots[:0]
		for _, s := range slots {
			if !s.Committed && job.LessEq(s.Trigger, d.now) {
				s.Committed = true
			}
			if s.End <= d.now {
				continue
			}
			keep = append(keep, s)
		}
		d.machines[i] = keep
	}
}

// earliestStart finds the earliest feasible start ≥ lo on machine i's
// timeline with room for p before deadline. Timelines are sorted and
// non-overlapping, so one forward scan suffices.
func (d *refDeltaCommit) earliestStart(i int, lo, p, deadline float64) (float64, bool) {
	cand := lo
	for _, s := range d.machines[i] {
		if job.LessEq(s.End, cand) {
			continue // entirely before the candidate
		}
		if job.LessEq(cand+p, s.Start) {
			break // fits in the gap before this slot
		}
		cand = s.End // overlap: push past it
	}
	if !job.LessEq(cand+p, deadline) {
		return 0, false
	}
	return cand, true
}

// insert places a slot on machine i, keeping the timeline sorted.
func (d *refDeltaCommit) insert(i int, s dcSlot) {
	slots := d.machines[i]
	at := sort.Search(len(slots), func(k int) bool { return slots[k].Start > s.Start })
	slots = append(slots, dcSlot{})
	copy(slots[at+1:], slots[at:])
	slots[at] = s
	d.machines[i] = slots
}

// Submit implements online.Scheduler. The verdict is immediate and
// final; what δ defers is the binding of machine time — the planned
// start is at or after the job's own commitment trigger, and the slot
// stays pending until the clock reaches it.
func (d *refDeltaCommit) Submit(j job.Job) online.Decision {
	d.advance(effectiveRelease(d.now, j))
	r := d.now
	slack := j.Deadline - j.Proc - r
	if slack < 0 {
		return online.Decision{JobID: j.ID} // can never finish
	}
	trigger := r + (1-d.delta)*slack
	lo := trigger
	if lo < d.now {
		lo = d.now
	}
	best, bestStart := -1, math.Inf(1)
	for i := 0; i < d.m; i++ {
		start, ok := d.earliestStart(i, lo, j.Proc, j.Deadline)
		if ok && start < bestStart {
			best, bestStart = i, start
		}
	}
	if best < 0 {
		return online.Decision{JobID: j.ID}
	}
	d.insert(best, dcSlot{
		JobID:     j.ID,
		Start:     bestStart,
		End:       bestStart + j.Proc,
		Trigger:   trigger,
		Committed: job.LessEq(trigger, d.now),
	})
	return online.Decision{JobID: j.ID, Accepted: true, Machine: best, Start: bestStart}
}

// ExportState implements AdmissionPolicy.
func (d *refDeltaCommit) ExportState() (State, error) {
	ms := make([][]dcSlot, d.m)
	for i, slots := range d.machines {
		ms[i] = append([]dcSlot(nil), slots...)
	}
	return marshalState(d.Name(), dcState{M: d.m, Delta: d.delta, Now: d.now, Machines: ms})
}

// ImportState implements AdmissionPolicy.
func (d *refDeltaCommit) ImportState(s State) error {
	var st dcState
	if err := unmarshalState(s, d.Name(), &st); err != nil {
		return err
	}
	if st.M != d.m {
		return fmt.Errorf("policy: delta-commit state for m=%d imported into m=%d", st.M, d.m)
	}
	if st.Delta != d.delta {
		return fmt.Errorf("policy: delta-commit state for delta=%g imported into delta=%g", st.Delta, d.delta)
	}
	if len(st.Machines) != d.m {
		return fmt.Errorf("policy: delta-commit state has %d machines, want %d", len(st.Machines), d.m)
	}
	if math.IsNaN(st.Now) || math.IsInf(st.Now, 0) || st.Now < 0 {
		return fmt.Errorf("policy: delta-commit state clock %g not a finite non-negative time", st.Now)
	}
	for i, slots := range st.Machines {
		for k, sl := range slots {
			if math.IsNaN(sl.Start) || math.IsInf(sl.Start, 0) ||
				math.IsNaN(sl.End) || math.IsInf(sl.End, 0) ||
				math.IsNaN(sl.Trigger) || math.IsInf(sl.Trigger, 0) {
				return fmt.Errorf("policy: delta-commit state machine %d slot %d not finite", i, k)
			}
			if sl.End < sl.Start {
				return fmt.Errorf("policy: delta-commit state machine %d slot %d ends before it starts", i, k)
			}
			if k > 0 && job.Less(sl.Start, slots[k-1].End) {
				return fmt.Errorf("policy: delta-commit state machine %d slots %d,%d overlap", i, k-1, k)
			}
		}
	}
	d.now = st.Now
	for i := range d.machines {
		d.machines[i] = append([]dcSlot(nil), st.Machines[i]...)
	}
	return nil
}
