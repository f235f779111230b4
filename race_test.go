//go:build race

package lake_test

// raceEnabled reports a -race build, where the allocation gates skip (see
// skipUnderRace).
const raceEnabled = true
