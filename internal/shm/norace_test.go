//go:build !race

package shm

// raceEnabled reports a -race build; see TestRaceBuildBacksRegionsWithHeap.
const raceEnabled = false
