package main

import (
	"strconv"
	"strings"
	"time"

	"lakego/internal/batcher"
	"lakego/internal/boundary"
	"lakego/internal/flightrec"
	"lakego/internal/telemetry"
)

// counters is one reading of the program's own public counters and
// histograms, summed over shards. The per-layer metrics are deltas between
// the reading before the timed rounds and the one after them: counts are
// taken at the same boundaries as the end-to-end metrics they explain.
type counters struct {
	virt time.Duration

	calls       int64 // remoting.Lib.Stats
	channelTime time.Duration
	retries     int64
	executed    int64 // remoting.Daemon
	redelivered int64
	shardCalls  []int64

	sent, received          int64 // boundary.RingTransport
	rings, wakes, coalesced uint64

	launches, copyBytes int64 // gpu.Device

	bat     batcher.Stats // summed; MaxQueueDelay is the max
	fleet   struct{ placements, reroutes, rejects int64 }
	shmUsed int64
	dropped uint64
	tel     telemetry.Snapshot
}

func collect(st *stack) counters {
	c := counters{virt: st.virtualElapsed()}
	regs := []*telemetry.Registry{}
	if st.fleet != nil {
		fs := st.fleet.Stats()
		c.fleet.placements, c.fleet.reroutes, c.fleet.rejects = fs.Placements, fs.Reroutes, fs.Rejects
		regs = append(regs, st.fleet.Telemetry())
		c.dropped = st.fleet.Recorder().Dropped()
		for _, s := range st.fleet.Shards() {
			b := s.Batcher().Stats()
			c.bat.Requests += b.Requests
			c.bat.Items += b.Items
			c.bat.Rejected += b.Rejected
			c.bat.Flushes += b.Flushes
			c.bat.FullFlushes += b.FullFlushes
			c.bat.FallbackFlushes += b.FallbackFlushes
			if b.MaxQueueDelay > c.bat.MaxQueueDelay {
				c.bat.MaxQueueDelay = b.MaxQueueDelay
			}
		}
	} else {
		c.dropped = st.runtimes[0].FlightRecorder().Dropped()
	}
	for _, rt := range st.runtimes {
		calls, ch := rt.Lib().Stats()
		c.calls += calls
		c.channelTime += ch
		c.shardCalls = append(c.shardCalls, calls)
		c.retries += rt.Lib().ResilienceStats().Retries
		c.executed += rt.Daemon().Executed()
		c.redelivered += rt.Daemon().Redelivered()
		sent, recv := rt.Transport().Stats()
		c.sent += sent
		c.received += recv
		if ring, ok := rt.Transport().(*boundary.RingTransport); ok {
			r, w, co := ring.DoorbellStats()
			c.rings, c.wakes, c.coalesced = c.rings+r, c.wakes+w, c.coalesced+co
		}
		c.launches += rt.Device().Launches()
		_, bytes := rt.Device().Copies()
		c.copyBytes += bytes
		c.shmUsed += rt.Region().Used()
		regs = append(regs, rt.Telemetry())
	}
	c.tel = telemetry.MergedSnapshot(regs...)
	return c
}

// hist is one metric family's histogram summed over its label sets (one per
// shard), as cumulative bucket counts.
type hist struct {
	count, sum int64
	bounds     []int64 // finite upper bounds
	cum        []int64 // cumulative count per bound
}

func family(snap telemetry.Snapshot, fam string) hist {
	var h hist
	for name, hs := range snap.Histograms {
		if name != fam && !strings.HasPrefix(name, fam+"{") {
			continue
		}
		h.count += hs.Count
		h.sum += hs.Sum
		finite := hs.Buckets[:len(hs.Buckets)-1] // the last bucket is +Inf
		if h.bounds == nil {
			h.bounds = make([]int64, len(finite))
			h.cum = make([]int64, len(finite))
			for i, b := range finite {
				h.bounds[i], _ = strconv.ParseInt(b.LE, 10, 64)
			}
		}
		for i, b := range finite {
			h.cum[i] += b.Cumulative
		}
	}
	return h
}

// sub returns the observations h gained since earlier.
func (h hist) sub(earlier hist) hist {
	d := hist{count: h.count - earlier.count, sum: h.sum - earlier.sum, bounds: h.bounds}
	d.cum = append([]int64(nil), h.cum...)
	for i := range earlier.cum {
		d.cum[i] -= earlier.cum[i]
	}
	return d
}

func (h hist) mean() float64 { return ratio(float64(h.sum), float64(h.count)) }

// quantile is the upper bound of the bucket holding the q-quantile, the
// same estimate telemetry.Histogram.Quantile gives.
func (h hist) quantile(q float64) int64 {
	if h.count == 0 || len(h.bounds) == 0 {
		return 0
	}
	target := int64(q*float64(h.count) + 0.999999)
	if target < 1 {
		target = 1
	}
	for i, c := range h.cum {
		if c >= target {
			return h.bounds[i]
		}
	}
	return h.bounds[len(h.bounds)-1]
}

func counterFamily(snap telemetry.Snapshot, fam string) int64 {
	var n int64
	for name, v := range snap.Counters {
		if name == fam || strings.HasPrefix(name, fam+"{") {
			n += v
		}
	}
	return n
}

// counterMetrics turns the counter delta over the timed rounds into the
// count-derived per-layer metrics. items is the inference items completed
// in those rounds.
func counterMetrics(m map[string]float64, st *stack, a, b counters, items float64) {
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	fam := func(name string) hist { return family(b.tel, name).sub(family(a.tel, name)) }
	virt := b.virt - a.virt
	m["driver.virt_elapsed_s"] = b.virt.Seconds()

	m["fleet.placements"] = float64(b.fleet.placements)
	m["fleet.reroutes"] = float64(b.fleet.reroutes - a.fleet.reroutes)
	m["fleet.rejects"] = float64(b.fleet.rejects - a.fleet.rejects)
	lo, hi, sum := 0.0, 0.0, 0.0
	for i := range b.shardCalls {
		d := float64(b.shardCalls[i] - a.shardCalls[i])
		if i == 0 || d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
		sum += d
	}
	m["fleet.shard_imbalance_pct"] = ratio(hi-lo, sum/float64(len(b.shardCalls))) * 100

	flushes := float64(b.bat.Flushes - a.bat.Flushes)
	m["batcher.flushes"] = flushes
	m["batcher.avg_batch"] = ratio(float64(b.bat.Items-a.bat.Items), flushes)
	m["batcher.full_flush_pct"] = ratio(float64(b.bat.FullFlushes-a.bat.FullFlushes), flushes) * 100
	m["batcher.rejected"] = float64(b.bat.Rejected - a.bat.Rejected)
	m["batcher.fallback_flushes"] = float64(b.bat.FallbackFlushes - a.bat.FallbackFlushes)
	qd := fam("lake_batcher_queue_delay_ns")
	m["batcher.queue_delay_v_p50_us"] = float64(qd.quantile(0.50)) / 1e3
	m["batcher.queue_delay_v_p99_us"] = float64(qd.quantile(0.99)) / 1e3
	m["batcher.max_queue_delay_us"] = us(b.bat.MaxQueueDelay) // since boot: the witness against MaxWait

	calls := float64(b.calls - a.calls)
	m["remoting.calls_per_req"] = ratio(calls, items)
	m["remoting.daemon_executed_per_req"] = ratio(float64(b.executed-a.executed), items)
	m["remoting.retries"] = float64(b.retries - a.retries)
	m["remoting.redelivered"] = float64(b.redelivered - a.redelivered)
	m["remoting.channel_virt_share_pct"] = ratio(float64(b.channelTime-a.channelTime), float64(virt)) * 100

	rings := float64(b.rings - a.rings)
	m["boundary.frames_per_req"] = ratio(float64(b.sent-a.sent+b.received-a.received), items)
	m["boundary.doorbell_rings_per_req"] = ratio(rings, items)
	m["boundary.doorbell_wake_pct"] = ratio(float64(b.wakes-a.wakes), rings) * 100
	m["boundary.doorbell_coalesced_pct"] = ratio(float64(b.coalesced-a.coalesced), rings) * 100
	m["boundary.queue_full"] = float64(counterFamily(b.tel, "lake_boundary_queue_full_total") - counterFamily(a.tel, "lake_boundary_queue_full_total"))
	m["boundary.roundtrip_v_ns_mean"] = fam("lake_boundary_roundtrip_ns").mean()

	m["gpu.launches_per_req"] = ratio(float64(b.launches-a.launches), items)
	m["gpu.copy_bytes_per_req"] = ratio(float64(b.copyBytes-a.copyBytes), items)
	m["gpu.exec_v_ns_mean"] = fam("lake_gpu_exec_ns").mean()
	m["gpu.queue_delay_v_ns_mean"] = fam("lake_gpu_queue_delay_ns").mean()
	m["gpu.copy_v_ns_mean"] = fam("lake_gpu_copy_ns").mean()
	util := 0.0
	for _, rt := range st.runtimes {
		util += rt.Device().Utilization(time.Second, "")
	}
	m["gpu.utilization_pct"] = util / float64(len(st.runtimes)) * 100

	m["shm.used_bytes"] = float64(b.shmUsed)
	m["flightrec.dropped"] = float64(b.dropped - a.dropped)
}

// stageMetrics stitches the flight recorder's surviving events (the last few
// hundred calls of the timed rounds) into the Fig 5/6 virtual stage means.
func stageMetrics(m map[string]float64, st *stack) {
	rec := st.runtimes[0].FlightRecorder()
	if st.fleet != nil {
		rec = st.fleet.Recorder()
	}
	res := flightrec.Stitch(rec.Snapshot("benchmark"))
	sm := flightrec.MeasureStages(res.Timelines)
	m["flightrec.stage_queue_vns"] = sm.QueueNS
	m["flightrec.stage_exec_vns"] = sm.ExecNS
	m["flightrec.stage_copy_vns"] = sm.CopyNS
	m["flightrec.stage_boundary_vns"] = sm.BoundaryNS
	m["flightrec.stage_per_call_vns"] = sm.PerCallNS
	m["flightrec.chain_complete_pct"] = ratio(float64(res.Complete), float64(res.Completed)) * 100
	m["ledger.virt_accounted_pct"] = ratio(sm.QueueNS+sm.ExecNS+sm.CopyNS+sm.BoundaryNS, sm.PerCallNS) * 100
}
