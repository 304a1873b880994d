package policy

import (
	"fmt"
	"math"
	"sort"

	"loadmax/internal/job"
	"loadmax/internal/online"
)

// DeltaCommit is the δ-commitment admission discipline of
// Chen–Eberle–Megow–Schewior–Stein (arXiv:1811.08238) adapted to the
// serving stack's immediate-verdict protocol. In the paper's model the
// scheduler may wait with its commitment to job j until (1−δ) of j's
// slack has elapsed — the commitment trigger
//
//	τ_j = r_j + (1−δ)·(d_j − r_j − p_j)
//
// — and that deferral is where the model's power comes from: machine
// time inside [r_j, τ_j) is never pledged to j, so it stays available
// for tighter jobs that arrive in the meantime.
//
// The serving protocol demands an irrevocable verdict at Submit, so the
// adaptation is plan-at-arrival, commit-at-trigger: an admitted job is
// answered immediately with a planned slot that starts no earlier than
// its own trigger τ_j (starting before τ_j would bind exactly the
// machine time δ-commitment refuses to bind), joins the pending set,
// and is committed to its machine — pending → committed, the plan never
// revised — once the clock passes τ_j. Deferring starts leaves gaps on
// the near timeline, and placement is earliest-gap first-fit, so those
// gaps are exactly what later tight-deadline jobs (whose τ is close to
// their release) get packed into. Deferring to τ_j is always feasible
// for an otherwise-feasible job: τ_j + p_j = d_j − δ·slack ≤ d_j.
//
// δ ∈ (0, 1] is the commitment knob: δ=1 collapses τ_j to r_j —
// immediate commitment, a gap-filling greedy — while δ→0 defers every
// commitment to the job's last feasible start. Unlike the paper's
// algorithm this adaptation never discards a pending job (a returned
// verdict is a promise the serving stack must honor), which costs it
// the paper's abort power but keeps every decision replayable: Submit
// is a pure function of (state, job), bit-identical under WAL replay.
type DeltaCommit struct {
	m     int
	delta float64
	now   float64
	// machines[i] is machine i's booked timeline, sorted by Start,
	// non-overlapping. A slot's stored Committed flag is only its value
	// at insert or import; committed reads the live one.
	machines [][]dcSlot

	// The placement index. While endsSorted holds, every timeline's End
	// is non-decreasing too (true of any non-overlapping timeline except
	// when a zero or near-zero Proc lands within tolerance of a
	// neighbour), so expired slots form a prefix, the first slot that
	// can matter for a start ≥ lo is found by binary search, and the
	// per-machine summaries below bound where a gap can be. Once a
	// timeline breaks the order the policy falls back to full scans
	// until every timeline is ordered again.
	endsSorted bool
	// nextExpiry is the earliest End among the machines' first slots:
	// advance has nothing to prune while now < nextExpiry.
	nextExpiry float64
	// firstStart[i] and lastEnd[i] are the Start of machine i's first
	// slot and the End of its last (±Inf when empty); maxGap[i] is its
	// largest Start[k+1]−End[k] (−Inf below two slots).
	firstStart []float64
	lastEnd    []float64
	maxGap     []float64
}

// dcSlot is one booked interval [Start, End) on a machine.
type dcSlot struct {
	JobID     int     `json:"job"`
	Start     float64 `json:"start"`
	End       float64 `json:"end"`
	Trigger   float64 `json:"trigger"`
	Committed bool    `json:"committed"`
}

var _ AdmissionPolicy = (*DeltaCommit)(nil)

// NewDeltaCommit builds the δ-commitment policy on m machines.
func NewDeltaCommit(m int, delta float64) (*DeltaCommit, error) {
	if m < 1 {
		return nil, fmt.Errorf("policy: delta-commit m=%d must be ≥ 1", m)
	}
	if !(delta > 0 && delta <= 1) {
		return nil, fmt.Errorf("policy: delta-commit delta=%g must be in (0, 1]", delta)
	}
	d := &DeltaCommit{
		m: m, delta: delta, machines: make([][]dcSlot, m),
		firstStart: make([]float64, m), lastEnd: make([]float64, m), maxGap: make([]float64, m),
	}
	d.reindex()
	return d, nil
}

// DeltaCommitSpec formats the canonical spec for a δ value.
func DeltaCommitSpec(delta float64) string {
	return fmt.Sprintf("delta-commit:delta=%g", delta)
}

// Name implements online.Scheduler; it returns the canonical spec.
func (d *DeltaCommit) Name() string { return DeltaCommitSpec(d.delta) }

// Machines implements online.Scheduler.
func (d *DeltaCommit) Machines() int { return d.m }

// Delta returns δ.
func (d *DeltaCommit) Delta() float64 { return d.delta }

// Reset implements online.Scheduler.
func (d *DeltaCommit) Reset() {
	d.now = 0
	for i := range d.machines {
		d.machines[i] = nil
	}
	d.reindex()
}

// Now implements AdmissionPolicy.
func (d *DeltaCommit) Now() float64 { return d.now }

// committed reports whether s is bound to its machine: it was at insert
// or import, or the clock has since passed its trigger. The clock is
// monotone, so this is the flag an eager flip at every advance would
// have stored.
func (d *DeltaCommit) committed(s dcSlot) bool {
	return s.Committed || job.LessEq(s.Trigger, d.now)
}

// Pending returns how many admitted jobs are still awaiting their
// commitment trigger.
func (d *DeltaCommit) Pending() int {
	n := 0
	for _, slots := range d.machines {
		for _, s := range slots {
			if !d.committed(s) {
				n++
			}
		}
	}
	return n
}

// TotalLoad implements AdmissionPolicy: summed outstanding booked work,
// pending and committed alike (a promise is load).
func (d *DeltaCommit) TotalLoad() float64 {
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

// advance moves the clock to t and prunes slots that ended entirely in
// the past. Pruning never changes a future decision — placement only
// looks at intervals overlapping [now, ∞) — it just keeps timelines
// short. With ends sorted the expired slots are each timeline's prefix,
// compacted in place, and nothing is touched until the clock reaches
// nextExpiry.
func (d *DeltaCommit) advance(t float64) {
	if t > d.now {
		d.now = t
	}
	if !d.endsSorted {
		d.pruneAll()
		return
	}
	if !(d.nextExpiry <= d.now) {
		return
	}
	next := math.Inf(1)
	for i, slots := range d.machines {
		if len(slots) > 0 && slots[0].End <= d.now {
			k := 1
			for k < len(slots) && slots[k].End <= d.now {
				k++
			}
			slots = slots[:copy(slots, slots[k:])]
			d.machines[i] = slots
			d.summarize(i)
		}
		if len(slots) > 0 && slots[0].End < next {
			next = slots[0].End
		}
	}
	d.nextExpiry = next
}

// pruneAll is advance's fallback while some timeline's ends are out of
// order: it drops every expired slot wherever it sits, and rebuilds the
// index once every timeline is ordered again.
func (d *DeltaCommit) pruneAll() {
	for i, slots := range d.machines {
		keep := slots[:0]
		for _, s := range slots {
			if s.End > d.now {
				keep = append(keep, s)
			}
		}
		d.machines[i] = keep
	}
	d.reindex()
}

// reindex recomputes endsSorted, nextExpiry and every machine summary
// from the timelines.
func (d *DeltaCommit) reindex() {
	d.endsSorted = true
	d.nextExpiry = math.Inf(1)
	for i, slots := range d.machines {
		for k := 1; k < len(slots); k++ {
			if slots[k].End < slots[k-1].End {
				d.endsSorted = false
			}
		}
		if len(slots) > 0 && slots[0].End < d.nextExpiry {
			d.nextExpiry = slots[0].End
		}
		d.summarize(i)
	}
}

// summarize recomputes machine i's first start, last end and largest
// internal gap.
func (d *DeltaCommit) summarize(i int) {
	slots := d.machines[i]
	d.firstStart[i], d.lastEnd[i], d.maxGap[i] = math.Inf(1), math.Inf(-1), math.Inf(-1)
	if len(slots) == 0 {
		return
	}
	d.firstStart[i], d.lastEnd[i] = slots[0].Start, slots[len(slots)-1].End
	for k := 1; k < len(slots); k++ {
		if g := slots[k].Start - slots[k-1].End; g > d.maxGap[i] {
			d.maxGap[i] = g
		}
	}
}

// scan finds the earliest feasible start ≥ lo among slots with room for
// p before deadline, giving up once the start can no longer beat bound.
// Timelines are sorted and non-overlapping, so one forward scan
// suffices; the candidate only grows, so once it misses the deadline or
// reaches bound no later slot can help.
func scan(slots []dcSlot, lo, p, deadline, bound float64) (float64, bool) {
	cand := lo
	for _, s := range slots {
		if job.LessEq(s.End, cand) {
			continue // entirely before the candidate
		}
		if job.LessEq(cand+p, s.Start) {
			break // fits in the gap before this slot
		}
		cand = s.End // overlap: push past it
		if cand >= bound || !job.LessEq(cand+p, deadline) {
			return 0, false
		}
	}
	if !job.LessEq(cand+p, deadline) {
		return 0, false
	}
	return cand, true
}

// placeMargin scales the summary filter's slack: a thousand times
// job.TimeEps, far above the tolerance plus float rounding any
// comparison in scan can contribute at the same magnitude.
const placeMargin = 1e3 * job.TimeEps

// place returns the machine with the earliest feasible start ≥ lo for a
// job of length p due at deadline (ties to the lowest index), or -1.
func (d *DeltaCommit) place(lo, p, deadline float64) (best int, bestStart float64) {
	best, bestStart = -1, math.Inf(1)
	fast := d.endsSorted && p >= 0 &&
		!math.IsInf(lo, 0) && !math.IsNaN(lo) && !math.IsInf(deadline, 0) && !math.IsNaN(deadline) && !math.IsInf(p, 0)
	if !fast {
		for i, slots := range d.machines {
			if start, ok := scan(slots, lo, p, deadline, math.Inf(1)); ok && start < bestStart {
				best, bestStart = i, start
			}
		}
		return best, bestStart
	}
	// A machine can host the job only after its last slot (A), before
	// its first (B) or in an internal gap of at least p (C), each up to
	// the comparison tolerance; the margin dwarfs that tolerance, so the
	// filter never skips a machine scan would accept.
	margin := placeMargin * (1 + math.Abs(lo) + math.Abs(deadline) + p)
	for i, slots := range d.machines {
		if !(d.lastEnd[i]+p <= deadline+margin || lo+p <= d.firstStart[i]+margin || d.maxGap[i] >= p-margin) {
			continue
		}
		// Slots ending at or before lo are skipped by scan without
		// moving the candidate; with ends sorted they are a prefix.
		k, hi := 0, len(slots)
		for k < hi {
			h := int(uint(k+hi) >> 1)
			if slots[h].End <= lo {
				k = h + 1
			} else {
				hi = h
			}
		}
		if start, ok := scan(slots[k:], lo, p, deadline, bestStart); ok && start < bestStart {
			best, bestStart = i, start
			if start == lo {
				break // every start is ≥ lo, and ties go to the lower index
			}
		}
	}
	return best, bestStart
}

// insert places a slot on machine i, keeping the timeline sorted and the
// index current.
func (d *DeltaCommit) insert(i int, s dcSlot) {
	slots := d.machines[i]
	at := sort.Search(len(slots), func(k int) bool { return slots[k].Start > s.Start })
	slots = append(slots, dcSlot{})
	copy(slots[at+1:], slots[at:])
	slots[at] = s
	d.machines[i] = slots
	if !d.endsSorted {
		return // pruneAll rebuilds the index
	}
	if at > 0 && s.End < slots[at-1].End || at+1 < len(slots) && slots[at+1].End < s.End {
		d.endsSorted = false
		return
	}
	d.summarize(i)
	if slots[0].End < d.nextExpiry {
		d.nextExpiry = slots[0].End
	}
}

// Submit implements online.Scheduler. The verdict is immediate and
// final; what δ defers is the binding of machine time — the planned
// start is at or after the job's own commitment trigger, and the slot
// stays pending until the clock reaches it.
func (d *DeltaCommit) Submit(j job.Job) online.Decision {
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
	best, bestStart := d.place(lo, j.Proc, j.Deadline)
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

// dcState is the export blob: the full booked timelines, pending flags
// included, so an import resumes mid-pending-set exactly.
type dcState struct {
	M        int        `json:"m"`
	Delta    float64    `json:"delta"`
	Now      float64    `json:"now"`
	Machines [][]dcSlot `json:"machines"`
}

// ExportState implements AdmissionPolicy.
func (d *DeltaCommit) ExportState() (State, error) {
	ms := make([][]dcSlot, d.m)
	for i, slots := range d.machines {
		ms[i] = append([]dcSlot(nil), slots...)
		for k := range ms[i] {
			ms[i][k].Committed = d.committed(ms[i][k])
		}
	}
	return marshalState(d.Name(), dcState{M: d.m, Delta: d.delta, Now: d.now, Machines: ms})
}

// ImportState implements AdmissionPolicy.
func (d *DeltaCommit) ImportState(s State) error {
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
			// Placement accepts an overlap within tolerance, so the
			// import check must too.
			if k > 0 && job.Less(sl.Start, slots[k-1].End) {
				return fmt.Errorf("policy: delta-commit state machine %d slots %d,%d overlap", i, k-1, k)
			}
		}
	}
	d.now = st.Now
	for i := range d.machines {
		d.machines[i] = append([]dcSlot(nil), st.Machines[i]...)
	}
	d.reindex()
	return nil
}

// DeltaCommitBuilder returns the Builder for δ-commitment at delta.
func DeltaCommitBuilder(delta float64) (Builder, error) {
	if !(delta > 0 && delta <= 1) {
		return Builder{}, fmt.Errorf("policy: delta-commit delta=%g must be in (0, 1]", delta)
	}
	return Builder{
		Spec: DeltaCommitSpec(delta),
		New: func(m int, eps float64) (AdmissionPolicy, error) {
			return NewDeltaCommit(m, delta)
		},
	}, nil
}
