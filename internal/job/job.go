// Package job defines the job model of the paper "Commitment and Slack for
// Online Load Maximization" (Jamalabadi, Schwiegelshohn & Schwiegelshohn,
// SPAA 2020): a job J_j is a tuple (r_j, p_j, d_j) of release date,
// processing time and deadline. A deadline has slack ε when
//
//	d_j ≥ (1+ε)·p_j + r_j.
//
// The package also provides instances (ordered job collections), slack
// computation and validation, epsilon-aware time comparison helpers used
// throughout the repository, and (de)serialization.
package job

import (
	"fmt"
	"math"
	"sort"
)

// TimeEps is the relative tolerance used for all floating-point time
// comparisons in this repository. Adversarial constructions (the
// overlap-interval halving of Lemma 1, tight-slack deadlines) produce
// times that differ by amounts near machine precision; every feasibility
// or deadline comparison must therefore be tolerance-aware.
//
// The value leaves ~4 decimal digits of float64 headroom (machine epsilon
// is ≈ 2e−16) while staying far below the smallest *intentional* gap any
// construction produces: the adversary enforces its β floor well above
// TimeEps·f_m·2^m (see adversary.Config), so a deliberate gap is never
// mistaken for equality.
const TimeEps = 1e-12

// Eq reports whether two times are equal within TimeEps (relative to their
// magnitude, with an absolute floor for values near zero).
//
// The scale is max(1, |a|, |b|) by plain comparisons rather than
// math.Max, which is not inlined on amd64 and sits on every placement
// decision. The two agree whenever neither input is NaN (absolute values
// are never −0), and with a NaN input diff is NaN, so both report false.
func Eq(a, b float64) bool {
	aa, ab := math.Abs(a), math.Abs(b)
	scale := 1.0
	if aa > scale {
		scale = aa
	}
	if ab > scale {
		scale = ab
	}
	return math.Abs(a-b) <= TimeEps*scale
}

// Less reports whether a < b beyond tolerance.
func Less(a, b float64) bool { return a < b && !Eq(a, b) }

// LessEq reports whether a ≤ b within tolerance.
func LessEq(a, b float64) bool { return a < b || Eq(a, b) }

// Greater reports whether a > b beyond tolerance.
func Greater(a, b float64) bool { return a > b && !Eq(a, b) }

// GreaterEq reports whether a ≥ b within tolerance.
func GreaterEq(a, b float64) bool { return a > b || Eq(a, b) }

// Job is a single non-preemptible job. ID is assigned by the instance
// generator (or the adversary) and is unique within an instance.
type Job struct {
	ID       int     `json:"id"`
	Release  float64 `json:"r"` // r_j: earliest possible start time
	Proc     float64 `json:"p"` // p_j: processing time, > 0
	Deadline float64 `json:"d"` // d_j: latest possible completion time
}

// Slack returns the job's slack ε_j defined by d_j = (1+ε_j)·p_j + r_j,
// i.e. ε_j = (d_j − r_j − p_j)/p_j. The instance-wide slack ε of the paper
// is the minimum over all jobs.
func (j Job) Slack() float64 {
	if j.Proc <= 0 {
		return math.Inf(1)
	}
	return (j.Deadline - j.Release - j.Proc) / j.Proc
}

// HasSlack reports whether the job satisfies the slack condition (3) of
// the paper for the given ε, within tolerance:
//
//	d_j ≥ (1+ε)·p_j + r_j.
func (j Job) HasSlack(eps float64) bool {
	return GreaterEq(j.Deadline, (1+eps)*j.Proc+j.Release)
}

// Tight reports whether the slack condition holds with equality for ε,
// i.e. the job has "tight slack" in the paper's terminology.
func (j Job) Tight(eps float64) bool {
	return Eq(j.Deadline, (1+eps)*j.Proc+j.Release)
}

// LatestStart returns the last feasible start time d_j − p_j.
func (j Job) LatestStart() float64 { return j.Deadline - j.Proc }

// Window returns the length of the execution window d_j − r_j.
func (j Job) Window() float64 { return j.Deadline - j.Release }

// Validate checks structural sanity: positive processing time,
// non-negative release, and a window long enough to run the job.
func (j Job) Validate() error {
	switch {
	case j.Proc <= 0:
		return fmt.Errorf("job %d: non-positive processing time %g", j.ID, j.Proc)
	case j.Release < 0:
		return fmt.Errorf("job %d: negative release date %g", j.ID, j.Release)
	case math.IsNaN(j.Release) || math.IsNaN(j.Proc) || math.IsNaN(j.Deadline):
		return fmt.Errorf("job %d: NaN field", j.ID)
	case math.IsInf(j.Proc, 0) || math.IsInf(j.Release, 0):
		return fmt.Errorf("job %d: infinite release or processing time", j.ID)
	case Less(j.Deadline-j.Release, j.Proc):
		return fmt.Errorf("job %d: window [%g,%g) shorter than processing time %g",
			j.ID, j.Release, j.Deadline, j.Proc)
	}
	return nil
}

func (j Job) String() string {
	return fmt.Sprintf("J%d(r=%g, p=%g, d=%g)", j.ID, j.Release, j.Proc, j.Deadline)
}

// Instance is an ordered collection of jobs. In online experiments, jobs
// are submitted in slice order; generators must emit them sorted by
// non-decreasing release date (ties broken arbitrarily but
// deterministically).
type Instance []Job

// TotalLoad returns Σ p_j over the instance — the value an offline
// clairvoyant scheduler could achieve if every job were accepted.
func (in Instance) TotalLoad() float64 {
	var s float64
	for _, j := range in {
		s += j.Proc
	}
	return s
}

// MinSlack returns the instance slack ε = min_j ε_j, or +Inf for an empty
// instance.
func (in Instance) MinSlack() float64 {
	eps := math.Inf(1)
	for _, j := range in {
		if s := j.Slack(); s < eps {
			eps = s
		}
	}
	return eps
}

// MaxDeadline returns max_j d_j, or 0 for an empty instance.
func (in Instance) MaxDeadline() float64 {
	var d float64
	for _, j := range in {
		if j.Deadline > d {
			d = j.Deadline
		}
	}
	return d
}

// MaxProc returns max_j p_j, or 0 for an empty instance.
func (in Instance) MaxProc() float64 {
	var p float64
	for _, j := range in {
		if j.Proc > p {
			p = j.Proc
		}
	}
	return p
}

// MinProc returns min_j p_j, or +Inf for an empty instance.
func (in Instance) MinProc() float64 {
	p := math.Inf(1)
	for _, j := range in {
		if j.Proc < p {
			p = j.Proc
		}
	}
	return p
}

// Validate checks every job and the release-order invariant, and — when
// eps ≥ 0 is supplied — the slack condition for every job. Pass a negative
// eps to skip the slack check.
func (in Instance) Validate(eps float64) error {
	for i, j := range in {
		if err := j.Validate(); err != nil {
			return err
		}
		if eps >= 0 && !j.HasSlack(eps) {
			return fmt.Errorf("job %d violates slack condition for eps=%g (slack %g)",
				j.ID, eps, j.Slack())
		}
		if i > 0 && Greater(in[i-1].Release, j.Release) {
			return fmt.Errorf("instance not sorted by release: job %d (r=%g) after job %d (r=%g)",
				j.ID, j.Release, in[i-1].ID, in[i-1].Release)
		}
	}
	return nil
}

// SortByRelease sorts the instance in place by non-decreasing release
// date, breaking ties by ID so the order is deterministic.
func (in Instance) SortByRelease() {
	sort.SliceStable(in, func(a, b int) bool {
		if in[a].Release != in[b].Release {
			return in[a].Release < in[b].Release
		}
		return in[a].ID < in[b].ID
	})
}

// Renumber assigns IDs 0..len-1 in slice order.
func (in Instance) Renumber() {
	for i := range in {
		in[i].ID = i
	}
}

// Clone returns a deep copy of the instance.
func (in Instance) Clone() Instance {
	out := make(Instance, len(in))
	copy(out, in)
	return out
}

// Union returns the total measure of ∪_j [r_j, d_j). Any schedule executes
// all load inside this union, so m times this measure upper-bounds the
// optimal load (one ingredient of the offline upper bound).
func (in Instance) Union() float64 {
	if len(in) == 0 {
		return 0
	}
	type iv struct{ lo, hi float64 }
	ivs := make([]iv, 0, len(in))
	for _, j := range in {
		ivs = append(ivs, iv{j.Release, j.Deadline})
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total float64
	curLo, curHi := ivs[0].lo, ivs[0].hi
	for _, v := range ivs[1:] {
		if v.lo > curHi {
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
			continue
		}
		if v.hi > curHi {
			curHi = v.hi
		}
	}
	return total + (curHi - curLo)
}
