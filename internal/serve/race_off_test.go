//go:build !race

package serve

// raceEnabled lets allocation-guard tests skip under the race detector;
// see race_on_test.go.
const raceEnabled = false
