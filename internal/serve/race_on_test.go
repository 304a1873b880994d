//go:build race

package serve

// raceEnabled lets allocation-guard tests skip under the race detector,
// which makes sync.Pool randomly drop items (to surface reuse races) —
// so pool-backed paths legitimately allocate there.
const raceEnabled = true
