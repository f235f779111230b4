// Package storage models the NVMe devices of the I/O latency prediction
// study (§7.1). The testbed's three Samsung 980 Pro drives are replaced by
// a queueing model that reproduces the properties LinnOS-style prediction
// depends on: internal channel parallelism, a fast DRAM cache that absorbs
// small reads under light load ("Larger caches absorb much more of the
// load"), bandwidth-proportional transfer time, and garbage-collection
// pauses whose likelihood grows with queue depth — the source of the
// latency variance that makes per-I/O fast/slow classification useful.
package storage

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// The calibration of the one drive model, a 980 Pro-class NVMe as seen by
// the study.
const (
	// channelCount is the internal parallelism (concurrent flash
	// operations).
	channelCount = 8
	// readBase / writeBase are unloaded media access latencies.
	readBase  = 80 * time.Microsecond
	writeBase = 22 * time.Microsecond
	// bytesPerSec is per-channel transfer bandwidth.
	bytesPerSec = 1.0e9
	// cacheLatency is the DRAM cache hit service time.
	cacheLatency = 12 * time.Microsecond
	// cacheHitProb is the read cache hit probability at queue depth zero;
	// effective probability decays as the queue builds.
	cacheHitProb = 0.55
	// gcThreshold is the queue depth beyond which garbage-collection
	// stalls become likely.
	gcThreshold = 12
	// gcProb is the stall probability per I/O once past the threshold
	// (outside the cooldown window).
	gcProb = 0.15
	// gcPause is the base stall duration; actual stalls last between one
	// and two pauses.
	gcPause = 1500 * time.Microsecond
	// gcCooldown is the minimum gap between stalls. It bounds the GC duty
	// cycle, preventing the queue->stall->queue feedback loop from
	// melting the device: real drives amortize GC over time.
	gcCooldown = 20 * time.Millisecond
	// gcWriteBudget triggers a stall after this many bytes written
	// (write-amplification-driven garbage collection). Because the
	// trigger depends only on the trace's cumulative write volume,
	// devices replaying the same trace stall in lockstep — reissuing to
	// a sibling lands on an equally stalled device — while devices
	// running dissimilar traces stall at uncorrelated times, which is
	// exactly when rejecting a slow I/O pays off (§7.1's mixed
	// workloads).
	gcWriteBudget = 8 << 20
)

// Completion describes one submitted I/O's outcome.
type Completion struct {
	// FinishAt is the absolute completion time.
	FinishAt time.Duration
	// Latency is FinishAt minus submission time.
	Latency time.Duration
	// Slow flags I/Os that hit a GC stall.
	Slow bool
}

// Device is one simulated NVMe drive. Safe for concurrent use, though the
// replay engines drive it from one goroutine for determinism.
type Device struct {
	name string

	mu       sync.Mutex
	rng      *rand.Rand
	channels []time.Duration // per-channel next-free time
	inflight []time.Duration // completion times, sorted
	recent   []time.Duration // most recent completion latencies, newest last

	gcUntil      time.Duration // device stalled until this instant
	noGCBefore   time.Duration // no new stall before this instant
	bytesSinceGC int64         // written bytes since the last stall
	gcTriggers   int64         // stalls so far (drives deterministic pauses)

	submitted int64
	slowCount int64
}

// RecentWindow is how many completed latencies the device exposes for
// feature capture (LinnOS uses the completion latency of a fixed number of
// previous I/Os).
const RecentWindow = 4

// NewDevice creates a drive named name (e.g. "nvme0") whose deterministic
// randomness is seeded with seed.
func NewDevice(name string, seed int64) *Device {
	return &Device{
		name:     name,
		rng:      rand.New(rand.NewSource(seed)),
		channels: make([]time.Duration, channelCount),
	}
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Submitted returns the number of I/Os accepted.
func (d *Device) Submitted() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.submitted
}

// SlowCount returns the number of I/Os that hit a GC stall.
func (d *Device) SlowCount() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.slowCount
}

func (d *Device) pruneLocked(now time.Duration) {
	i := sort.Search(len(d.inflight), func(i int) bool { return d.inflight[i] > now })
	if i > 0 {
		d.inflight = append(d.inflight[:0], d.inflight[i:]...)
	}
}

// Pending returns the number of in-flight I/Os at time now — the first
// LinnOS feature.
func (d *Device) Pending(now time.Duration) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pruneLocked(now)
	return len(d.inflight)
}

// RecentLatencies returns up to RecentWindow most recent completion
// latencies, newest first — the second LinnOS feature.
func (d *Device) RecentLatencies() []time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]time.Duration, len(d.recent))
	for i := range d.recent {
		out[i] = d.recent[len(d.recent)-1-i]
	}
	return out
}

// Submit issues an I/O of size bytes at time now and returns its modeled
// completion.
func (d *Device) Submit(now time.Duration, size int64, write bool) Completion {
	if size <= 0 {
		size = 4096
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pruneLocked(now)
	queue := len(d.inflight)
	d.submitted++

	if write {
		d.bytesSinceGC += size
	}
	// Accumulated writes or queue pressure kick off an internal
	// garbage-collection stall that freezes every channel. The cooldown
	// bounds the duty cycle.
	writeGC := d.bytesSinceGC >= gcWriteBudget
	queueGC := queue > gcThreshold && d.rng.Float64() < gcProb
	if (writeGC || queueGC) && now >= d.noGCBefore {
		// Pause length is a deterministic function of the trigger index,
		// not the per-device RNG: devices replaying identical traces then
		// stall over identical windows (see gcWriteBudget).
		d.gcTriggers++
		jitter := time.Duration((d.gcTriggers * 2654435761) % int64(gcPause))
		d.gcUntil = now + gcPause + jitter
		d.noGCBefore = d.gcUntil + gcCooldown
		d.bytesSinceGC = 0
	}

	// Earliest-free channel.
	ch := 0
	for i := 1; i < len(d.channels); i++ {
		if d.channels[i] < d.channels[ch] {
			ch = i
		}
	}
	start := now
	if d.channels[ch] > start {
		start = d.channels[ch]
	}
	slow := false
	if d.gcUntil > start {
		start = d.gcUntil
		slow = true
		d.slowCount++
	}

	transfer := time.Duration(float64(size) / bytesPerSec * float64(time.Second))
	var service time.Duration
	switch {
	case !write && d.rng.Float64() < cacheHitProb/(1+float64(queue)/8):
		// DRAM cache absorbs the read; bandwidth still applies.
		service = cacheLatency + transfer/4
	case write:
		service = writeBase + transfer
	default:
		service = readBase + transfer
	}

	finish := start + service
	d.channels[ch] = finish
	// Insert into sorted inflight list.
	i := sort.Search(len(d.inflight), func(i int) bool { return d.inflight[i] > finish })
	d.inflight = append(d.inflight, 0)
	copy(d.inflight[i+1:], d.inflight[i:])
	d.inflight[i] = finish

	lat := finish - now
	d.recent = append(d.recent, lat)
	if len(d.recent) > RecentWindow {
		d.recent = d.recent[1:]
	}
	return Completion{FinishAt: finish, Latency: lat, Slow: slow}
}

// Array is a set of devices with round-robin reissue target selection, the
// redundant-storage setting in which rejecting a slow I/O and reissuing it
// to a different device pays off (§5.5, §7.1).
type Array struct {
	devices []*Device
	next    int
	mu      sync.Mutex
}

// NewArray groups devices; it requires at least two (reissue needs a
// target).
func NewArray(devices ...*Device) (*Array, error) {
	if len(devices) < 2 {
		return nil, fmt.Errorf("storage: array needs >= 2 devices, got %d", len(devices))
	}
	return &Array{devices: devices}, nil
}

// Devices returns the member devices.
func (a *Array) Devices() []*Device { return a.devices }

// ReissueTarget picks the next round-robin device different from exclude.
func (a *Array) ReissueTarget(exclude *Device) *Device {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := 0; i < len(a.devices); i++ {
		d := a.devices[a.next%len(a.devices)]
		a.next++
		if d != exclude {
			return d
		}
	}
	return a.devices[0]
}
