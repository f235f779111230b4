package main

import (
	"math"
	"time"
)

// Speed normalisation.
//
// The boxes this benchmark runs on share their cores with other tenants: the
// core's effective speed drifts by 10-60 % over seconds to minutes, the
// workloads follow, and CPU time per request rises in step — so neither
// medians nor the CPU clock help, and ten raw runs of one commit spread
// 7-13 % between quartiles on a good day and 20-30 % when a slow spell falls
// among them. To keep wall metrics comparable between runs minutes apart,
// the harness interleaves short slices of a fixed reference kernel with the
// workload (32 per round, and around each set-up), times them apart from
// the workload, and scales the wall metrics by a speed factor:
//
//	speed factor   = sqrt(median slice / referenceSlice)
//	wall_req_per_s = raw rate x speed factor
//	cpu_us_per_req = raw CPU / speed factor        setup_s likewise
//
// The kernel is a chain of dependent multiply-adds over a cache-resident
// matrix, so it follows the core's speed fully. The workloads also wait on
// memory and follow it about half-way: when the kernel slows by a factor k,
// their rates were measured to drop by k^0.3 to k^0.6 (k^0.8 for
// call_mllb). Hence the square root. Over two sets of ten runs that took
// the quartile spread of wall_req_per_s from 7-23 % raw to 1.5-6 % on four
// workloads and 5-18 % on call_mllb; correcting in full (exponent 1)
// over-corrects and is worse than raw.
//
// The kernel is the benchmark's own code and calls nothing in the program
// under test, so a change to the program cannot move the factor. The raw
// rate and the factor are reported as driver.raw_req_per_s and
// driver.speed_factor, and every round's pair is in the result file.

// referenceSlice is how long the timed pass of a slice takes on the 2-core
// sandbox this was written on when it is quiet; the normalised metrics are
// "as if on that machine".
const referenceSlice = 131 * time.Microsecond

// slicesPerRound is how many reference slices are spread through one round.
const slicesPerRound = 32

// calibrator runs reference slices and accumulates their cost.
type calibrator struct {
	w, x []float32
	sink float32

	timed     []int64       // second passes only, ns
	wall, cpu time.Duration // whole slices, to take out of the workload's clocks
}

func newCalibrator() *calibrator {
	c := &calibrator{w: make([]float32, 256*32), x: make([]float32, 32)}
	for i := range c.w {
		c.w[i] = float32(i%7) - 3
	}
	for i := range c.x {
		c.x[i] = float32(i%5) - 2
	}
	return c
}

// pass is kept out of line so that its code does not depend on the caller.
//
//go:noinline
func (c *calibrator) pass() {
	for pass := 0; pass < 30; pass++ {
		for o := 0; o < 256; o++ {
			var sum float32
			for i, w := range c.w[o*32 : o*32+32] {
				sum += w * c.x[i]
			}
			c.sink += sum
		}
	}
}

// slice runs the reference kernel twice and times the second pass: the
// workload has just evicted the kernel's data, and how cold the caches are
// is the workload's doing, not the machine's speed.
func (c *calibrator) slice() {
	cpu0, t0 := cpuTime(), time.Now()
	c.pass()
	t1 := time.Now()
	c.pass()
	t2 := time.Now()
	c.timed = append(c.timed, int64(t2.Sub(t1)))
	c.wall += t2.Sub(t0)
	c.cpu += cpuTime() - cpu0
}

// take returns the speed factor over the slices since the last take (1 =
// reference speed; above 1 the machine is slower and rates are scaled up)
// with the slices' summed wall and CPU time, and starts a new window. It
// uses the median slice: one that the hypervisor preempted says nothing
// about the other 99 % of the round.
func (c *calibrator) take() (factor float64, wall, cpu time.Duration) {
	factor = 1
	if len(c.timed) > 0 {
		factor = math.Sqrt(float64(percentile(sortedCopy(c.timed), 0.50)) / float64(referenceSlice))
	}
	wall, cpu = c.wall, c.cpu
	c.timed, c.wall, c.cpu = c.timed[:0], 0, 0
	return factor, wall, cpu
}
