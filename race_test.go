//go:build race

package lake_test

// raceEnabled reports a -race build. The race runtime drops a random share
// of sync.Pool puts, so an allocation count taken under it measures the
// detector, not the code.
const raceEnabled = true
